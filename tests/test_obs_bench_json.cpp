// The bench emitter (bench/bench_json.h): gate evaluation, shape
// comparison against a reference document, and emit()'s exit status.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"

namespace bnm::benchutil {
namespace {

Value doc_of(const char* text) {
  std::string error;
  auto v = obs::json::parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error;
  return v ? *v : Value{};
}

bool passes(const Value& doc, const Value& gate) {
  std::string text;
  return evaluate_gate(doc, gate, &text);
}

std::vector<std::string> shape_errors(const char* doc, const char* ref) {
  std::vector<std::string> errors;
  compare_shape(doc_of(doc), doc_of(ref), "", &errors);
  return errors;
}

TEST(BenchGates, MatrixIdentityIsNotSatisfiedByCheckpointIdentity) {
  // The old `grep '"identical": true'` matched checkpoint.identical and so
  // could not see a serial/parallel mismatch; the dotted path can.
  Value doc = doc_of(
      R"({"matrix":{"identical":false},"checkpoint":{"identical":true}})");
  doc.add("gates", array({gate_true("matrix.identical"),
                          gate_true("checkpoint.identical")}));
  EXPECT_FALSE(passes(doc, gate_true("matrix.identical")));
  EXPECT_TRUE(passes(doc, gate_true("checkpoint.identical")));
  EXPECT_EQ(check_gates(doc), 1);
}

TEST(BenchGates, EachOperator) {
  const Value doc = doc_of(R"({"a":{"x":0.5,"n":7},"ok":true})");
  EXPECT_TRUE(passes(doc, gate("a.x", "<", 1)));
  EXPECT_FALSE(passes(doc, gate("a.x", "<", 0.5)));
  EXPECT_TRUE(passes(doc, gate("a.n", ">=", 7)));
  EXPECT_FALSE(passes(doc, gate("a.n", ">=", 8)));
  EXPECT_TRUE(passes(doc, gate("a.n", "==", 7)));
  EXPECT_FALSE(passes(doc, gate("a.n", "==", 6)));
  EXPECT_TRUE(passes(doc, gate_true("ok")));
  EXPECT_FALSE(passes(doc, gate("ok", "==", Value::boolean(false))));
  EXPECT_FALSE(passes(doc, gate("a.n", ">", 1)));  // unknown op
  EXPECT_FALSE(passes(doc, gate("ok", "<", Value::boolean(true))));
}

TEST(BenchGates, AnyPassesWhenOneBranchDoes) {
  const Value doc = doc_of(R"({"pct":1.5,"delta_ms":0.3})");
  EXPECT_TRUE(passes(doc, any_gate({gate("pct", "<", 1),
                                    gate("delta_ms", "<", 1)})));
  EXPECT_FALSE(passes(doc, any_gate({gate("pct", "<", 1),
                                     gate("delta_ms", "<", 0.1)})));
  EXPECT_FALSE(passes(doc, any_gate({})));
}

TEST(BenchGates, MissingNullOrMistypedMetricFails) {
  const Value doc =
      doc_of(R"({"a":{"x":1},"nan":null,"flag":true,"s":"1"})");
  EXPECT_FALSE(passes(doc, gate("a.y", "<", 2)));
  EXPECT_FALSE(passes(doc, gate("a.x.y", "<", 2)));
  EXPECT_FALSE(passes(doc, gate("b", ">=", 0)));
  EXPECT_FALSE(passes(doc, gate("nan", "<", 1)));
  EXPECT_FALSE(passes(doc, gate("nan", ">=", 1)));
  EXPECT_FALSE(passes(doc, gate("flag", ">=", 0)));  // bool vs number
  EXPECT_FALSE(passes(doc, gate_true("a.x")));       // number vs bool
  EXPECT_FALSE(passes(doc, gate("s", "==", 1)));     // string vs number
  EXPECT_FALSE(passes(doc, doc_of(R"({"metric":"a.x","op":"<"})")));
}

TEST(BenchGates, NonFiniteValuesDumpAsNullAndFail) {
  const Value doc =
      object({{"nan", Value::number(std::numeric_limits<double>::quiet_NaN())},
              {"inf", Value::number(std::numeric_limits<double>::infinity())}});
  const auto parsed = obs::json::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(passes(*parsed, gate("nan", ">=", 0)));
  EXPECT_FALSE(passes(*parsed, gate("inf", ">=", 0)));
}

TEST(BenchGates, MissingGatesArrayFails) {
  EXPECT_EQ(check_gates(doc_of(R"({"a":1})")), 1);
  EXPECT_EQ(check_gates(doc_of(R"({"a":1,"gates":[]})")), 1);
}

TEST(BenchShape, SameShapeWithDifferentValuesMatches) {
  EXPECT_TRUE(shape_errors(
                  R"({"n":1,"x":2.5,"b":false,"s":"a","o":{"k":[1,2]},
                      "gates":[]})",
                  R"({"n":7.25,"x":0,"b":true,"s":"b","o":{"k":[3]},
                      "gates":[{"metric":"n","op":"<","bound":1}]})")
                  .empty());
}

TEST(BenchShape, UnknownAndMissingMembersFail) {
  const auto unknown = shape_errors(R"({"a":1,"extra":2})", R"({"a":1})");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_NE(unknown[0].find("unknown member \"extra\""), std::string::npos);

  const auto missing = shape_errors(R"({"o":{"a":1}})", R"({"o":{"a":1,"b":2}})");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_NE(missing[0].find("o: missing member \"b\""), std::string::npos);

  EXPECT_EQ(shape_errors(R"({"b":1,"a":1})", R"({"a":1,"b":1})").size(), 1u);
}

TEST(BenchShape, KindMismatchesFail) {
  EXPECT_EQ(shape_errors(R"({"v":true})", R"({"v":1})").size(), 1u);
  EXPECT_EQ(shape_errors(R"({"v":"1"})", R"({"v":1})").size(), 1u);
  EXPECT_EQ(shape_errors(R"({"v":1})", R"({"v":false})").size(), 1u);
  EXPECT_EQ(shape_errors(R"({"v":null})", R"({"v":1.5})").size(), 1u);
  // Array elements are compared with the reference's first element.
  const auto rows =
      shape_errors(R"({"r":[{"k":1},{"k":"x"}]})", R"({"r":[{"k":2}]})");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("r[1].k"), std::string::npos);
}

TEST(BenchEmit, WritesTheFileAndReturnsTheVerdict) {
  const std::string path = "bnm_bench_emit_test.json";
  Value doc = object({{"ok", Value::boolean(true)}});
  doc.add("gates", array({gate_true("ok")}));
  EXPECT_EQ(emit(path, doc), 0);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), doc.dump() + "\n");

  doc.members()[0].second = Value::boolean(false);
  EXPECT_NE(emit(path, doc), 0);
  std::remove(path.c_str());
}

TEST(BenchEmit, UnwritablePathIsAFailure) {
  Value doc = object({{"ok", Value::boolean(true)}});
  doc.add("gates", array({gate_true("ok")}));
  EXPECT_NE(emit("no_such_dir_for_bench_emit/BENCH_x.json", doc), 0);
}

}  // namespace
}  // namespace bnm::benchutil
