#include "net/transport.hpp"

#include "net/chaos.hpp"
#include "net/codec.hpp"

namespace dhtidx::net {

std::uint64_t InProcessTransport::send(const Message& message) {
  const std::uint64_t wire_bytes = codec::encoded_size(message);
  ++delivered_;
  if (sink_ != nullptr) {
    sink_->on_message(message, wire_bytes);
  }
  return wire_bytes;
}

std::uint64_t EventQueueTransport::send(const Message& message) {
  const double base_deliver_at_ms = clock_ms_ + hop_delay_ms_;

  if (chaos_ != nullptr) {
    // Chaos faults target whole frames (a corrupted or dropped batch would
    // fate-share unrelated messages), so batching is off while an adversary
    // is attached: every frame travels alone, exactly as before PR 10.
    flush_staged();
    FrameBuffer buffer = acquire_buffer();
    codec::encode_into(message, buffer.bytes);
    const std::uint64_t wire_bytes = buffer.bytes.size();
    double deliver_at_ms = base_deliver_at_ms;
    bool duplicate = false;
    const FramePlan plan = chaos_->plan_frame(message.from, message.to);
    switch (plan.fault) {
      case FrameFault::kDrop:
        // The frame vanishes on the wire. The sender still paid for it, so
        // the wire size is returned as usual.
        release_buffer(std::move(buffer));
        return wire_bytes;
      case FrameFault::kCorrupt:
        chaos_->corrupt(buffer.bytes);
        break;
      case FrameFault::kDuplicate:
        duplicate = true;
        break;
      case FrameFault::kDelay:
      case FrameFault::kReorder:
        deliver_at_ms += plan.extra_delay_ms;
        break;
      case FrameFault::kNone:
        break;
    }
    if (duplicate) {
      queue_.push(PendingFrame{deliver_at_ms, next_sequence_++, buffer});
    }
    queue_.push(PendingFrame{deliver_at_ms, next_sequence_++, std::move(buffer)});
    return wire_bytes;
  }

  // Fault-free fast path: append to the open tail batch when this send has
  // the same destination and delivery instant ("one datagram per destination
  // per tick"); otherwise seal the batch and start a new one. Batch members
  // have consecutive sequences and one delivery instant, so delivery order,
  // trace and per-frame wire sizes are identical to unbatched sends.
  if (staged_active_ &&
      (!(staged_to_ == message.to) || staged_.deliver_at_ms != base_deliver_at_ms ||
       staged_.buffer.bounds.size() >= kMaxCoalescedFrames)) {
    flush_staged();
  }
  if (!staged_active_) {
    staged_active_ = true;
    staged_to_ = message.to;
    staged_.deliver_at_ms = base_deliver_at_ms;
    staged_.sequence = next_sequence_;
    staged_.buffer = acquire_buffer();
  }
  std::string& bytes = staged_.buffer.bytes;
  const std::size_t before = bytes.size();
  codec::encode_append(message, bytes);
  staged_.buffer.bounds.push_back(bytes.size());
  ++next_sequence_;
  return bytes.size() - before;
}

void EventQueueTransport::flush_staged() {
  if (!staged_active_) return;
  queue_.push(std::move(staged_));
  staged_active_ = false;
}

EventQueueTransport::FrameBuffer EventQueueTransport::acquire_buffer() {
  if (pool_.empty()) return {};
  FrameBuffer buffer = std::move(pool_.back());
  pool_.pop_back();
  buffer.bytes.clear();
  buffer.bounds.clear();
  return buffer;
}

void EventQueueTransport::release_buffer(FrameBuffer&& buffer) {
  if (pool_.size() < kBufferPoolCap) {
    pool_.push_back(std::move(buffer));
  }
}

void EventQueueTransport::pump() {
  while (true) {
    // The staged batch joins the heap first: it holds the largest sequences
    // at its delivery instant, so heap order equals send order throughout.
    flush_staged();
    if (queue_.empty()) break;
    // Move out before popping: the sink may send() re-entrantly, and the
    // queue must not hold a popped-but-live reference meanwhile. Moving
    // leaves the heap node's ordering keys intact, so pop() re-heapifies
    // correctly, and the buffer changes hands without a copy.
    PendingFrame next = std::move(const_cast<PendingFrame&>(queue_.top()));
    queue_.pop();
    if (next.deliver_at_ms > clock_ms_) {
      clock_ms_ = next.deliver_at_ms;
    }
    const std::string_view bytes{next.buffer.bytes};
    const std::vector<std::size_t>& bounds = next.buffer.bounds;
    const std::size_t count = bounds.empty() ? 1 : bounds.size();
    std::size_t start = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t end = bounds.empty() ? bytes.size() : bounds[i];
      const std::string_view sub = bytes.substr(start, end - start);
      const std::uint64_t sequence = next.sequence + i;
      start = end;
      Message message;
      try {
        message = codec::decode(sub);
      } catch (const codec::CodecError&) {
        // Damaged frame: it still consumed the wire and delivery slot (the
        // trace records it), but the payload never reaches the sink.
        ++rejected_;
        trace_.push_back(sequence);
        if (sink_ != nullptr) {
          sink_->on_rejected(sub.size());
        }
        continue;
      }
      ++delivered_;
      trace_.push_back(sequence);
      if (sink_ != nullptr) {
        sink_->on_message(message, sub.size());
      }
    }
    release_buffer(std::move(next.buffer));
  }
}

}  // namespace dhtidx::net
