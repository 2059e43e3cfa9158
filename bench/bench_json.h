// One way for a bench to emit its BENCH_*.json and declare its bounds.
//
// A bench builds an obs::json::Value, appends a "gates" array and ends with
//
//   return benchutil::emit("BENCH_<name>.json", doc);
//
// which writes the file, prints one verdict line per gate and returns
// non-zero when the file cannot be written or any gate fails.
// tools/bench_schema_check evaluates the same gates with the same code and
// compares a file's shape with the committed repo-root file of the same
// basename (docs/BENCH_SCHEMAS.md).
//
// A gate is {"metric": "<dotted.path>", "op": "<" | ">=" | "==",
// "bound": <number or bool>}, or {"any": [gate, ...]}, which passes when
// one branch does. A gate fails when its metric path does not resolve,
// when the value is null (dump() writes NaN/Inf as null), or when the
// value's kind differs from the bound's.
//
// Depends on obs/json.h only, so the checker and the tests include it too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace bnm::benchutil {

using obs::json::Value;

/// An object with `members` in the given order.
inline Value object(std::initializer_list<obs::json::Member> members) {
  Value v = Value::object();
  for (const obs::json::Member& m : members) v.add(m.first, m.second);
  return v;
}

inline Value array(std::initializer_list<Value> items) {
  Value v = Value::array();
  for (const Value& item : items) v.push(item);
  return v;
}

/// Counts and byte totals of any integer type.
template <typename T>
Value integer(T n) {
  static_assert(std::is_integral_v<T>);
  return Value::integer(static_cast<std::int64_t>(n));
}

inline Value gate(std::string metric, std::string op, Value bound) {
  return object({{"metric", Value::string(std::move(metric))},
                 {"op", Value::string(std::move(op))},
                 {"bound", std::move(bound)}});
}

inline Value gate(std::string metric, std::string op, double bound) {
  return gate(std::move(metric), std::move(op), Value::number(bound));
}

/// `metric == true`.
inline Value gate_true(std::string metric) {
  return gate(std::move(metric), "==", Value::boolean(true));
}

inline Value any_gate(std::initializer_list<Value> branches) {
  return object({{"any", array(branches)}});
}

/// The value at a dotted member path ("matrix.identical"); nullptr when a
/// step is missing or not an object.
inline const Value* resolve(const Value& doc, std::string_view path) {
  const Value* v = &doc;
  while (v != nullptr) {
    const std::size_t dot = path.find('.');
    v = v->find(path.substr(0, dot));
    if (dot == std::string_view::npos) break;
    path.remove_prefix(dot + 1);
  }
  return v;
}

/// Evaluate one gate against `doc`, appending a readable form of it (with
/// the value found) to *text.
inline bool evaluate_gate(const Value& doc, const Value& gate,
                          std::string* text) {
  if (const Value* any = gate.find("any")) {
    bool pass = false;
    *text += "any(";
    for (std::size_t i = 0; any->is_array() && i < any->items().size(); ++i) {
      if (i > 0) *text += ", ";
      pass = evaluate_gate(doc, any->items()[i], text) || pass;
    }
    *text += ")";
    return pass;
  }
  const Value* metric = gate.find("metric");
  const Value* op = gate.find("op");
  const Value* bound = gate.find("bound");
  if (metric == nullptr || !metric->is_string() || op == nullptr ||
      !op->is_string() || bound == nullptr) {
    *text += "malformed gate " + gate.dump();
    return false;
  }
  const std::string& o = op->as_string();
  const Value* v = resolve(doc, metric->as_string());
  *text += metric->as_string() + " " + o + " " + bound->dump() + " (" +
           (v != nullptr ? v->dump() : std::string{"missing"}) + ")";
  if (v == nullptr) return false;
  if (bound->is_bool()) {
    return o == "==" && v->is_bool() && v->as_bool() == bound->as_bool();
  }
  if (!bound->is_number() || !v->is_number()) return false;
  const double x = v->as_double();
  const double b = bound->as_double();
  if (o == "<") return x < b;
  if (o == ">=") return x >= b;
  if (o == "==") return x == b;
  return false;
}

/// Evaluate every gate in doc["gates"], printing one verdict line each.
/// Returns the number that failed; a missing or empty "gates" array counts
/// as one failure.
inline int check_gates(const Value& doc) {
  const Value* gates = doc.find("gates");
  if (gates == nullptr || !gates->is_array() || gates->items().empty()) {
    std::printf("  [FAIL] no \"gates\" array\n");
    return 1;
  }
  int failed = 0;
  for (const Value& g : gates->items()) {
    std::string text;
    const bool pass = evaluate_gate(doc, g, &text);
    std::printf("  [%s] gate %s\n", pass ? "PASS" : "FAIL", text.c_str());
    failed += pass ? 0 : 1;
  }
  return failed;
}

inline const char* kind_name(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kInt:
    case Value::Type::kDouble: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
  }
  return "?";
}

/// Compare `v`'s shape with `ref`'s: the same member names in the same
/// order and the same kinds, array elements against the reference's first
/// element. The top-level "gates" member is left to check_gates. Appends
/// one message per mismatch to *errors.
inline void compare_shape(const Value& v, const Value& ref,
                          const std::string& where,
                          std::vector<std::string>* errors) {
  const std::string at = where.empty() ? "(top level)" : where;
  if (std::string_view{kind_name(v)} != kind_name(ref)) {
    errors->push_back(at + ": " + kind_name(v) + ", reference has " +
                      kind_name(ref));
    return;
  }
  if (v.is_array()) {
    for (std::size_t i = 0; i < v.items().size() && !ref.items().empty();
         ++i) {
      compare_shape(v.items()[i], ref.items().front(),
                    where + "[" + std::to_string(i) + "]", errors);
    }
    return;
  }
  if (!v.is_object()) return;
  const std::string prefix = where.empty() ? "" : where + ".";
  std::vector<std::string> names, ref_names;
  bool same_names = true;
  for (const obs::json::Member& m : v.members()) {
    if (where.empty() && m.first == "gates") continue;
    names.push_back(m.first);
    if (const Value* r = ref.find(m.first)) {
      compare_shape(m.second, *r, prefix + m.first, errors);
    } else {
      errors->push_back(at + ": unknown member \"" + m.first + "\"");
      same_names = false;
    }
  }
  for (const obs::json::Member& m : ref.members()) {
    if (where.empty() && m.first == "gates") continue;
    ref_names.push_back(m.first);
    if (v.find(m.first) == nullptr) {
      errors->push_back(at + ": missing member \"" + m.first + "\"");
      same_names = false;
    }
  }
  if (same_names && names != ref_names) {
    errors->push_back(at + ": members out of the reference's order");
  }
}

/// Write `doc` to `path` with dump(), print one verdict line per gate and
/// return 0 iff the file was written and every gate passed.
inline int emit(const std::string& path, const Value& doc) {
  const std::string text = doc.dump() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool written = f != nullptr &&
                 std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) written = false;
  if (written) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
  }
  const int failed = check_gates(doc);
  return written && failed == 0 ? 0 : 1;
}

}  // namespace bnm::benchutil
