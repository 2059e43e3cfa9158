// The browser's WebSocket JavaScript API over the simulated RFC 6455 stack
// (Table 1 row "WebSocket"). Message-based, not subject to same-origin,
// native (no plugin) - the one socket option on plugin-less platforms.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "browser/browser.h"
#include "ws/endpoint.h"

namespace bnm::browser {

class BrowserWebSocket {
 public:
  /// Begins the opening handshake immediately (like `new WebSocket(url)`).
  /// If the browser lacks WebSocket support (IE9/Safari5, Table 2), the
  /// error callback fires asynchronously and the object stays closed.
  BrowserWebSocket(Browser& browser, net::Endpoint server,
                   const std::string& path = "/ws");

  /// Detaches connection callbacks so late frames touch nothing freed.
  ~BrowserWebSocket();

  void set_onopen(sim::SmallFunction<void()> cb) { onopen_ = std::move(cb); }
  void set_onmessage(sim::SmallFunction<void(const std::string&)> cb) {
    onmessage_ = std::move(cb);
  }
  void set_onclose(sim::SmallFunction<void(std::uint16_t)> cb) {
    onclose_ = std::move(cb);
  }
  void set_onerror(sim::SmallFunction<void(const std::string&)> cb) {
    onerror_ = std::move(cb);
  }

  /// Send a message (binary framing; the measurement payloads are opaque).
  void send(const std::string& data);
  void close();

  bool open() const { return conn_ && conn_->open(); }

 private:
  Browser& browser_;
  std::unique_ptr<ws::WebSocketClient> client_;
  std::shared_ptr<ws::WebSocketConnection> conn_;
  bool used_before_ = false;
  bool current_is_first_ = true;  ///< the in-flight round is the object's first
  sim::SmallFunction<void()> onopen_;
  sim::SmallFunction<void(const std::string&)> onmessage_;
  sim::SmallFunction<void(std::uint16_t)> onclose_;
  sim::SmallFunction<void(const std::string&)> onerror_;
  std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
};

}  // namespace bnm::browser
