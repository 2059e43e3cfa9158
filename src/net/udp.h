// Simulated UDP socket (used by the Java applet UDP method, and generally
// available as a substrate for loss/reordering experiments).
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.h"
#include "net/packet.h"
#include "sim/callback.h"

namespace bnm::net {

class Host;

class UdpSocket {
 public:
  /// (source endpoint, payload). The payload is a zero-copy view of the
  /// datagram's buffer.
  using ReceiveCallback = sim::SmallFunction<void(Endpoint, const Payload&)>;

  UdpSocket(Host& host, Port local_port, ReceiveCallback on_receive);

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  Port local_port() const { return local_port_; }

  void send_to(Endpoint remote, Payload payload);

  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_received() const { return received_; }

  // Host-internal.
  void on_datagram(const Packet& packet);

 private:
  Host& host_;
  Port local_port_;
  ReceiveCallback on_receive_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace bnm::net
