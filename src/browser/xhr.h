// XMLHttpRequest shim: the JavaScript-native HTTP measurement object
// (Table 1, rows "XHR GET/POST"). Subject to the same-origin policy.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "browser/browser.h"
#include "browser/url.h"

namespace bnm::browser {

class XmlHttpRequest {
 public:
  enum class ReadyState { kUnsent = 0, kOpened = 1, kHeadersReceived = 2,
                          kLoading = 3, kDone = 4 };

  explicit XmlHttpRequest(Browser& browser) : browser_{browser} {}

  /// In-flight completion callbacks check the alive flag, so destroying an
  /// XHR mid-request (a cancelled measurement run) orphans them safely.
  ~XmlHttpRequest() { *alive_ = false; }

  /// Configure the request. Relative URLs resolve against the origin.
  /// Returns false on a malformed URL.
  bool open(const std::string& method, const std::string& url);

  void set_onreadystatechange(sim::SmallFunction<void()> cb) {
    onreadystatechange_ = std::move(cb);
  }
  void set_onerror(sim::SmallFunction<void(const std::string&)> cb) {
    onerror_ = std::move(cb);
  }

  /// Dispatch the request. Fails (onerror, returns false) if the target
  /// violates the same-origin policy.
  bool send(const std::string& body = "");

  ReadyState ready_state() const { return state_; }
  int status() const { return status_; }
  const std::string& response_text() const { return response_text_; }

 private:
  void change_state(ReadyState s);

  Browser& browser_;
  ReadyState state_ = ReadyState::kUnsent;
  std::string method_ = "GET";
  ParsedUrl url_;
  bool used_before_ = false;
  int status_ = 0;
  std::string response_text_;
  sim::SmallFunction<void()> onreadystatechange_;
  sim::SmallFunction<void(const std::string&)> onerror_;
  std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
};

}  // namespace bnm::browser
