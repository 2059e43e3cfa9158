// Flash plugin runtime shim: URLLoader (HTTP) and Socket (TCP), with the
// plugin's connection-policy quirks (Section 4.1) and the cross-domain
// policy-file fetch that real Flash performs before socket use.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/url.h"
#include "net/tcp.h"

namespace bnm::browser {

class FlashRuntime {
 public:
  explicit FlashRuntime(Browser& browser) : browser_{browser} {}

  /// Pending policy-file fetches check the alive flag, so destroying the
  /// runtime mid-fetch (a cancelled measurement run) orphans them safely.
  ~FlashRuntime() { *alive_ = false; }

  Browser& browser() { return browser_; }

  /// True once any HTTP request has been issued by this plugin instance;
  /// drives the "first request opens a new connection" Opera policy.
  bool made_http_request() const { return made_http_request_; }
  void note_http_request() { made_http_request_ = true; }

  /// Flash requires a socket policy before connecting a Socket to a host.
  /// The runtime fetches /crossdomain.xml over HTTP once per host.
  bool policy_loaded(net::IpAddress host) const {
    return policy_hosts_.count(host) > 0;
  }
  void fetch_policy(net::IpAddress host, sim::SmallFunction<void(bool)> done);

  // ------------------------------------------------------------- URLLoader
  class URLLoader {
   public:
    explicit URLLoader(FlashRuntime& runtime) : runtime_{runtime} {}
    ~URLLoader() { *alive_ = false; }

    void set_on_complete(sim::SmallFunction<void(int, const std::string&)> cb) {
      on_complete_ = std::move(cb);
    }
    void set_on_error(sim::SmallFunction<void(const std::string&)> cb) {
      on_error_ = std::move(cb);
    }

    /// Issue a GET/POST. Connection reuse follows the browser's Flash
    /// policy; returns false on a malformed URL.
    bool load(const std::string& method, const std::string& url,
              const std::string& body = "");

   private:
    FlashRuntime& runtime_;
    bool used_before_ = false;
    sim::SmallFunction<void(int, const std::string&)> on_complete_;
    sim::SmallFunction<void(const std::string&)> on_error_;
    std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
  };

  // ---------------------------------------------------------------- Socket
  class Socket {
   public:
    explicit Socket(FlashRuntime& runtime) : runtime_{runtime} {}
    ~Socket();

    void set_on_connect(sim::SmallFunction<void()> cb) { on_connect_ = std::move(cb); }
    void set_on_socket_data(sim::SmallFunction<void(const std::string&)> cb) {
      on_socket_data_ = std::move(cb);
    }
    void set_on_error(sim::SmallFunction<void(const std::string&)> cb) {
      on_error_ = std::move(cb);
    }

    /// Connect; transparently fetches the cross-domain policy file first
    /// if this runtime has not validated `target.ip` yet.
    void connect(net::Endpoint target);
    /// writeBytes + flush in the ActionScript API.
    void write(const std::string& bytes);
    void close();

    bool connected() const { return conn_ && conn_->established(); }

   private:
    void do_connect(net::Endpoint target);

    FlashRuntime& runtime_;
    std::shared_ptr<net::TcpConnection> conn_;
    bool used_before_ = false;
    bool current_is_first_ = true;
    sim::SmallFunction<void()> on_connect_;
    sim::SmallFunction<void(const std::string&)> on_socket_data_;
    sim::SmallFunction<void(const std::string&)> on_error_;
    std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
  };

 private:
  Browser& browser_;
  bool made_http_request_ = false;
  std::set<net::IpAddress> policy_hosts_;
  std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
};

}  // namespace bnm::browser
