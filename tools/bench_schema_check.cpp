// Checks emitted BENCH_*.json files. Each file's shape must match the
// committed repo-root file of the same basename (the same member names in
// the same order, the same kinds), and every gate in its "gates" array
// must pass (bench/bench_json.h holds both checks; docs/BENCH_SCHEMAS.md
// describes the fields).
//
//   bench_schema_check build-release/BENCH_*.json
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"

namespace {

using bnm::obs::json::Value;

std::optional<Value> load(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "schema: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  std::optional<Value> doc = bnm::obs::json::parse(ss.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "schema: %s: parse failed: %s\n", path.c_str(),
                 error.c_str());
  }
  return doc;
}

int check_file(const std::string& path) {
  const std::string base = path.substr(path.find_last_of('/') + 1);
  const std::optional<Value> doc = load(path);
  const std::optional<Value> ref =
      load(std::string{BNM_SOURCE_DIR} + "/" + base);
  if (!doc || !ref) return 1;
  std::vector<std::string> errors;
  bnm::benchutil::compare_shape(*doc, *ref, "", &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "schema: %s: %s\n", base.c_str(), e.c_str());
  }
  std::printf("%s:\n", base.c_str());
  const int failed = bnm::benchutil::check_gates(*doc);
  if (!errors.empty() || failed > 0) return 1;
  std::printf("schema: %s OK\n", base.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_schema_check BENCH_*.json...\n");
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) rc |= check_file(argv[i]);
  return rc;
}
