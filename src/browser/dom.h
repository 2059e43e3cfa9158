// DOM-element measurement shim: insert an <img>/<script> element whose
// src points at the probe URL, and time the onload event (Table 1 row
// "DOM"). Not subject to the same-origin policy.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "browser/browser.h"
#include "browser/url.h"

namespace bnm::browser {

class DomElementLoader {
 public:
  enum class Tag { kImg, kScript };

  DomElementLoader(Browser& browser, Tag tag = Tag::kImg)
      : browser_{browser}, tag_{tag} {}

  /// In-flight load callbacks check the alive flag, so destroying the
  /// loader mid-request (a cancelled measurement run) orphans them safely.
  ~DomElementLoader() { *alive_ = false; }

  void set_onload(sim::SmallFunction<void()> cb) { onload_ = std::move(cb); }
  void set_onerror(sim::SmallFunction<void(const std::string&)> cb) {
    onerror_ = std::move(cb);
  }

  /// Insert a fresh element pointing at `url` (relative or absolute; DOM
  /// loads may be cross-origin). Returns false on a malformed URL.
  bool load(const std::string& url);

  Tag tag() const { return tag_; }
  int loads_completed() const { return loads_completed_; }

 private:
  Browser& browser_;
  Tag tag_;
  bool used_before_ = false;
  int loads_completed_ = 0;
  sim::SmallFunction<void()> onload_;
  sim::SmallFunction<void(const std::string&)> onerror_;
  std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
};

}  // namespace bnm::browser
