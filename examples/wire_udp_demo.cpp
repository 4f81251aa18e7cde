// Wire-protocol demo over real UDP loopback datagrams.
//
// Two endpoints in one process — an index node and a client — each bind their
// own 127.0.0.1 socket and exchange versioned codec frames (PROTOCOL.md):
// the client publishes query-to-query mappings with one-way kPublish posts
// (acked), then resolves them with kLookup request/response exchanges. Every
// frame crosses the kernel as a real datagram, so this exercises the exact
// bytes the simulations account for in their measured traffic ledgers.
//
// Run: ./examples/wire_udp_demo
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "net/message.hpp"
#include "net/udp.hpp"

using namespace dhtidx;

namespace {

/// The serving endpoint: owns an index of source→targets mappings and
/// answers publish/lookup frames delivered by its transport.
class IndexNode : public net::MessageSink {
 public:
  explicit IndexNode(const Id& id) : id_(id) { transport_.set_sink(this); }

  net::UdpTransport& transport() { return transport_; }
  const Id& id() const { return id_; }

  void on_message(const net::Message& message, std::uint64_t wire_bytes) override {
    switch (message.action) {
      case net::Action::kPublish: {
        // Payload: [source canonical, target canonical]. Ack with no data.
        const std::string source{message.payload.at(0)};
        mappings_[source].push_back(message.payload.at(1));
        std::printf("  node  <- publish  %-38s (%llu wire bytes)\n", source.c_str(),
                    static_cast<unsigned long long>(wire_bytes));
        transport_.send(net::Message::ack_to(message));
        return;
      }
      case net::Action::kLookup: {
        net::Message response = net::Message::response_to(message);
        const std::string source{message.payload.at(0)};
        const auto it = mappings_.find(source);
        if (it == mappings_.end()) {
          response.status = net::Status::kNotFound;
        } else {
          response.payload = it->second;
        }
        std::printf("  node  <- lookup   %-38s -> %zu target(s)\n",
                    source.c_str(), response.payload.size());
        transport_.send(response);
        return;
      }
      default:
        std::printf("  node  <- unexpected %s frame\n", net::to_string(message.action));
    }
  }

 private:
  Id id_;
  net::UdpTransport transport_;
  std::map<std::string, net::Payload> mappings_;
};

/// The client endpoint: collects replies so the main flow can wait on them.
class Client : public net::MessageSink {
 public:
  Client() { transport_.set_sink(this); }

  net::UdpTransport& transport() { return transport_; }

  /// Both endpoints live in this one process, so the client also drives the
  /// node's receive loop while waiting (in separate processes the node would
  /// poll its own socket).
  void set_peer(net::UdpTransport* peer) { peer_ = peer; }

  void on_message(const net::Message& message, std::uint64_t) override {
    last_ = message;
    ++received_;
  }

  /// Sends `m` and blocks (bounded) until any reply frame arrives.
  net::Message call(const net::Message& m, std::uint64_t& bytes_out) {
    bytes_out += transport_.send(m);
    const std::uint64_t before = received_;
    for (int waited = 0; received_ == before && waited < 100; ++waited) {
      if (peer_ != nullptr) peer_->poll_and_pump(50);
      transport_.poll_and_pump(50);
    }
    if (received_ == before) {
      throw Error{"wire_udp_demo: no reply within 5s — loopback unavailable?"};
    }
    bytes_in_ += net::codec::encoded_size(last_);
    return last_;
  }

  std::uint64_t bytes_in() const { return bytes_in_; }

 private:
  net::UdpTransport transport_;
  net::UdpTransport* peer_ = nullptr;
  net::Message last_;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_in_ = 0;
};

}  // namespace

int main() {
  std::printf("wire_udp_demo: index RPCs as codec v%d frames over UDP loopback\n\n",
              net::codec::kWireVersion);

  const Id client_id = Id::hash("client");
  IndexNode node{Id::hash("index-node")};
  Client client;

  // Peer registration stands in for the DHT substrate's routing table.
  node.transport().add_peer(client_id, client.transport().port());
  client.transport().add_peer(node.id(), node.transport().port());
  client.set_peer(&node.transport());
  std::printf("node on 127.0.0.1:%u, client on 127.0.0.1:%u\n\n",
              node.transport().port(), client.transport().port());

  // Publish a tiny index: a conference entry query pointing at two MSDs, an
  // author entry pointing at one (the paper's query-to-query mappings).
  const struct {
    const char* source;
    const char* target;
  } mappings[] = {
      {"/conference[@name='ICDCS']",
       "/article[@title='Data Indexing'][@conf='ICDCS'][@year='2004']"},
      {"/conference[@name='ICDCS']",
       "/article[@title='P2P Routing'][@conf='ICDCS'][@year='2004']"},
      {"/author[@last='Garces-Erice']",
       "/article[@title='Data Indexing'][@conf='ICDCS'][@year='2004']"},
  };

  std::uint64_t bytes_out = 0;
  std::uint64_t request_id = 1;
  for (const auto& mapping : mappings) {
    net::Message publish = net::Message::request(net::Action::kPublish, client_id, node.id());
    publish.request_id = request_id++;
    publish.payload = {mapping.source, mapping.target};
    const net::Message ack = client.call(publish, bytes_out);
    if (ack.context != net::Context::kAck) {
      std::fprintf(stderr, "expected an ack, got %s\n", net::to_string(ack.context));
      return 1;
    }
  }

  std::printf("\n");
  for (const char* source :
       {"/conference[@name='ICDCS']", "/author[@last='Garces-Erice']",
        "/journal[@name='TON']"}) {
    net::Message lookup = net::Message::request(net::Action::kLookup, client_id, node.id());
    lookup.request_id = request_id++;
    lookup.payload = {source};
    const net::Message response = client.call(lookup, bytes_out);
    std::printf("client -> lookup   %-38s : %s, %zu target(s)\n", source,
                net::to_string(response.status), response.payload.size());
    for (const std::string_view target : response.payload) {
      std::printf("                     %.*s\n", static_cast<int>(target.size()),
                  target.data());
    }
  }

  std::printf("\nclient sent %llu bytes, received %llu bytes — all as real datagrams\n",
              static_cast<unsigned long long>(bytes_out),
              static_cast<unsigned long long>(client.bytes_in()));
  return 0;
}
