// Typed messages exchanged between nodes.
//
// Every RPC in the system — index publish/lookup, record store/fetch,
// replication and repair — is expressed as a net::Message travelling through a
// net::Transport (see transport.hpp). A message is one of three kinds
// (request, response, ack), carries an action code naming the RPC, a status
// code on the reply leg, a correlation id, the endpoint ids, and an opaque
// payload of byte strings whose meaning is defined per action (PROTOCOL.md).
//
// Messages are plain value types. The payload is held in its wire form (the
// frame's item section, see Payload), so the codec (codec.hpp) appends or
// adopts it whole, and the in-process fast path moves messages around without
// ever serializing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>

#include "common/id.hpp"

namespace dhtidx::net {

/// The three legs of an RPC. Requests open an exchange, responses answer with
/// a payload, acks confirm one-way operations without carrying data.
enum class Context : std::uint8_t {
  kRequest = 0,
  kResponse = 1,
  kAck = 2,
};

/// RPC action codes. The numeric values are part of the wire format — append
/// new actions at the end, never renumber (see PROTOCOL.md §Versioning).
enum class Action : std::uint8_t {
  kPing = 0,       // liveness probe; empty payload
  kPublish = 1,    // index layer: add a source→target mapping
  kLookup = 2,     // index layer: resolve a query's target list
  kSearchAll = 3,  // index layer: lookup issued by exhaustive-search descent
  kReplicate = 4,  // index/storage layer: push a copy to a successor replica
  kRepair = 5,     // index/storage layer: re-create a mapping lost to churn
  kStore = 6,      // storage layer: put a record at the responsible node
  kFetch = 7,      // storage layer: get the records under a key
  kRemove = 8,     // storage layer: delete the records under a key
  kShortcut = 9,   // cache layer: install a shortcut on the lookup path
};

/// Number of distinct actions; used for dispatch tables and validation.
inline constexpr std::size_t kActionCount = 10;

/// Response status codes.
enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
};

inline constexpr std::size_t kContextCount = 3;
inline constexpr std::size_t kStatusCount = 3;

const char* to_string(Context context);
const char* to_string(Action action);
const char* to_string(Status status);

struct Message;
namespace codec {
Message decode(std::string_view buffer);
}  // namespace codec

/// A message's payload: an ordered list of byte strings, stored as the wire
/// form of a frame's item section — a u32 little-endian length followed by
/// the raw bytes, repeated (codec.hpp). push_back() is the one place that
/// framing is written, so encoding appends the buffer verbatim, a frame's
/// size is known in O(1), decoding adopts the section with one copy, and
/// copying a payload costs one allocation however many items it carries.
///
/// Items read back as string_views into the buffer; they stay valid until the
/// payload is next modified. Indexing walks the length prefixes (O(i)), so
/// full scans should iterate.
class Payload {
 public:
  /// Framing in front of every item: the u32 length prefix.
  static constexpr std::size_t kItemPrefixBytes = 4;

  /// Forward iterator over the items, yielding string_views.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    const_iterator() = default;
    std::string_view operator*() const {
      return {at_ + kItemPrefixBytes, read_prefix(at_)};
    }
    const_iterator& operator++() {
      at_ += kItemPrefixBytes + read_prefix(at_);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class Payload;
    explicit const_iterator(const char* at) : at_(at) {}
    const char* at_ = nullptr;
  };

  Payload() = default;
  Payload(std::initializer_list<std::string_view> items) { *this = items; }
  Payload& operator=(std::initializer_list<std::string_view> items) {
    clear();
    for (const std::string_view item : items) push_back(item);
    return *this;
  }

  /// Appends one item, which may be a view of this payload's own items.
  /// Throws Error when its size does not fit the u32 length prefix; the
  /// codec's tighter caps are enforced at encode time.
  void push_back(std::string_view item) {
    if (std::less_equal<const char*>{}(wire_.data(), item.data()) &&
        std::less<const char*>{}(item.data(), wire_.data() + wire_.size())) {
      // Growing the buffer would invalidate the view: append a copy.
      push_back(std::string{item});
      return;
    }
    const std::uint32_t length = length_prefix(item.size());
    const char prefix[kItemPrefixBytes] = {
        static_cast<char>(length & 0xFF), static_cast<char>((length >> 8) & 0xFF),
        static_cast<char>((length >> 16) & 0xFF), static_cast<char>(length >> 24)};
    wire_.append(prefix, kItemPrefixBytes);
    wire_.append(item);
    ++count_;
    if (item.size() > largest_) largest_ = item.size();
  }

  /// Replaces the contents with `n` copies of `item`.
  void assign(std::size_t n, std::string_view item);

  void clear() {
    wire_.clear();
    count_ = 0;
    largest_ = 0;
  }

  /// Reserves room for `items` more items totalling `item_bytes` bytes, so a
  /// reply whose size is known up front costs one allocation.
  void reserve(std::size_t items, std::size_t item_bytes) {
    wire_.reserve(wire_.size() + items * kItemPrefixBytes + item_bytes);
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Size of the largest item (0 when empty), so caps check in O(1).
  std::size_t largest_item() const { return largest_; }
  /// The item section exactly as it appears in an encoded frame.
  const std::string& wire() const { return wire_; }

  const_iterator begin() const { return const_iterator{wire_.data()}; }
  const_iterator end() const { return const_iterator{wire_.data() + wire_.size()}; }

  /// The i-th item; `i` must be below size().
  std::string_view operator[](std::size_t i) const { return *std::next(begin(), i); }
  /// operator[] with a range check: throws std::out_of_range past the end.
  std::string_view at(std::size_t i) const;

  bool operator==(const Payload&) const = default;

  /// The u32 length prefix of an item of `item_bytes` bytes. Throws Error
  /// when the size does not fit: an item is rejected, never truncated.
  static std::uint32_t length_prefix(std::size_t item_bytes) {
    if (item_bytes > 0xFFFFFFFFu) reject_length(item_bytes);
    return static_cast<std::uint32_t>(item_bytes);
  }

 private:
  // The decoder validates a frame's item section, then adopts it whole.
  friend Message codec::decode(std::string_view buffer);
  Payload(std::string_view wire, std::size_t count, std::size_t largest)
      : count_(count), largest_(largest), wire_(wire) {}

  static std::uint32_t read_prefix(const char* at) {
    const auto* b = reinterpret_cast<const unsigned char*>(at);
    return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
  }
  [[noreturn]] static void reject_length(std::size_t item_bytes);

  std::size_t count_ = 0;
  std::size_t largest_ = 0;
  std::string wire_;
};

/// One message on the wire. `from`/`to` are node ids on the identifier
/// circle; the zero id denotes the client endpoint, which is not a DHT
/// member. `request_id` correlates the legs of one exchange and is assigned
/// by the bus — leave it zero when constructing messages by hand.
struct Message {
  Context context = Context::kRequest;
  Action action = Action::kPing;
  Status status = Status::kOk;
  std::uint64_t request_id = 0;
  Id from;
  Id to;
  Payload payload;

  bool operator==(const Message&) const = default;

  /// Convenience factory for the request leg of an exchange.
  static Message request(Action action, const Id& from, const Id& to) {
    Message m;
    m.context = Context::kRequest;
    m.action = action;
    m.from = from;
    m.to = to;
    return m;
  }

  /// Builds the response leg: same action and correlation id, endpoints
  /// swapped. The payload starts empty.
  static Message response_to(const Message& req) {
    Message m;
    m.context = Context::kResponse;
    m.action = req.action;
    m.request_id = req.request_id;
    m.from = req.to;
    m.to = req.from;
    return m;
  }

  /// Builds the ack leg for a one-way operation: header only, no payload.
  static Message ack_to(const Message& req) {
    Message m = response_to(req);
    m.context = Context::kAck;
    return m;
  }
};

}  // namespace dhtidx::net
