// Java applet runtime shim: URL (HTTP), Socket (TCP) and DatagramSocket
// (UDP) as a measurement applet uses them, with a selectable timing
// function - Date.getTime() (the accuracy trap of §4.2) or
// System.nanoTime() (the fix of Table 4).
//
// An applet runs inside the JRE, not the browser; launching it with
// `appletviewer` (Fig. 4b) removes the browser/plugin dispatch overheads
// but keeps the JRE clock behaviour - exactly how the paper separated the
// two effects.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/url.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace bnm::browser {

class JavaAppletRuntime {
 public:
  struct Options {
    /// Use System.nanoTime() instead of Date.getTime().
    bool use_nanotime = false;
    /// Launched via the JDK appletviewer instead of a browser plugin.
    bool via_appletviewer = false;
  };

  JavaAppletRuntime(Browser& browser, Options options)
      : browser_{browser}, options_{options} {}

  Browser& browser() { return browser_; }
  const Options& options() const { return options_; }

  /// The timing API the applet's measurement code reads.
  TimingApi& timing() {
    return browser_.clock(options_.use_nanotime ? ClockKind::kJavaNano
                                                : ClockKind::kJavaDate);
  }

  /// Overhead sampling: browser-plugin path uses the calibrated profile;
  /// the appletviewer path has only the JRE's own (small) costs.
  sim::Duration pre_send(ProbeKind kind, bool first_use);
  sim::Duration recv_dispatch(ProbeKind kind, bool first_use);

  // ------------------------------------------------------------------ URL
  /// java.net.URL / URLConnection: HTTP request, completion detected by
  /// reading the response content (no event listener in the applet API).
  class UrlConnection {
   public:
    explicit UrlConnection(JavaAppletRuntime& runtime) : runtime_{runtime} {}
    ~UrlConnection() { *alive_ = false; }

    void set_on_complete(sim::SmallFunction<void(int, const std::string&)> cb) {
      on_complete_ = std::move(cb);
    }
    void set_on_error(sim::SmallFunction<void(const std::string&)> cb) {
      on_error_ = std::move(cb);
    }

    bool load(const std::string& method, const std::string& url,
              const std::string& body = "");

   private:
    JavaAppletRuntime& runtime_;
    bool used_before_ = false;
    sim::SmallFunction<void(int, const std::string&)> on_complete_;
    sim::SmallFunction<void(const std::string&)> on_error_;
    std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
  };

  // --------------------------------------------------------------- Socket
  class Socket {
   public:
    explicit Socket(JavaAppletRuntime& runtime) : runtime_{runtime} {}
    ~Socket();

    void set_on_connect(sim::SmallFunction<void()> cb) { on_connect_ = std::move(cb); }
    void set_on_data(sim::SmallFunction<void(const std::string&)> cb) {
      on_data_ = std::move(cb);
    }
    /// SocketException surface: connection reset / aborted by the stack.
    void set_on_error(sim::SmallFunction<void(const std::string&)> cb) {
      on_error_ = std::move(cb);
    }
    void connect(net::Endpoint target);
    void write(const std::string& bytes);
    void close();
    bool connected() const { return conn_ && conn_->established(); }

   private:
    JavaAppletRuntime& runtime_;
    std::shared_ptr<net::TcpConnection> conn_;
    bool used_before_ = false;
    bool current_is_first_ = true;
    sim::SmallFunction<void()> on_connect_;
    sim::SmallFunction<void(const std::string&)> on_data_;
    sim::SmallFunction<void(const std::string&)> on_error_;
    std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
  };

  // ------------------------------------------------------- DatagramSocket
  class DatagramSocket {
   public:
    explicit DatagramSocket(JavaAppletRuntime& runtime);
    ~DatagramSocket();

    void set_on_receive(
        sim::SmallFunction<void(net::Endpoint, const std::string&)> cb) {
      on_receive_ = std::move(cb);
    }
    /// java.net.DatagramSocket#setSoTimeout: after each send_to, if no
    /// datagram arrives within `timeout`, on_timeout fires (the shim's
    /// SocketTimeoutException). zero disables (the default: block forever).
    void set_so_timeout(sim::Duration timeout) { so_timeout_ = timeout; }
    void set_on_timeout(sim::SmallFunction<void()> cb) {
      on_timeout_ = std::move(cb);
    }
    void send_to(net::Endpoint target, const std::string& bytes);
    void close();

   private:
    JavaAppletRuntime& runtime_;
    std::shared_ptr<net::UdpSocket> sock_;
    bool used_before_ = false;
    bool current_is_first_ = true;
    sim::SmallFunction<void(net::Endpoint, const std::string&)> on_receive_;
    sim::SmallFunction<void()> on_timeout_;
    sim::Duration so_timeout_ = sim::Duration::zero();
    sim::EventHandle receive_deadline_;
    std::shared_ptr<bool> alive_ = sim::make_arena_shared<bool>(true);
  };

 private:
  Browser& browser_;
  Options options_;
};

}  // namespace bnm::browser
