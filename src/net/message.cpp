#include "net/message.hpp"

#include <stdexcept>

#include "common/error.hpp"

namespace dhtidx::net {

void Payload::assign(std::size_t n, std::string_view item) {
  clear();
  reserve(n, n * item.size());
  for (std::size_t i = 0; i < n; ++i) push_back(item);
}

std::string_view Payload::at(std::size_t i) const {
  if (i >= count_) {
    throw std::out_of_range("payload item " + std::to_string(i) + " of " +
                            std::to_string(count_));
  }
  return (*this)[i];
}

void Payload::reject_length(std::size_t item_bytes) {
  throw Error{"net: payload item of " + std::to_string(item_bytes) +
              " bytes does not fit its u32 length prefix"};
}

const char* to_string(Context context) {
  switch (context) {
    case Context::kRequest:
      return "request";
    case Context::kResponse:
      return "response";
    case Context::kAck:
      return "ack";
  }
  return "?";
}

const char* to_string(Action action) {
  switch (action) {
    case Action::kPing:
      return "ping";
    case Action::kPublish:
      return "publish";
    case Action::kLookup:
      return "lookup";
    case Action::kSearchAll:
      return "search-all";
    case Action::kReplicate:
      return "replicate";
    case Action::kRepair:
      return "repair";
    case Action::kStore:
      return "store";
    case Action::kFetch:
      return "fetch";
    case Action::kRemove:
      return "remove";
    case Action::kShortcut:
      return "shortcut";
  }
  return "?";
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kNotFound:
      return "not-found";
    case Status::kError:
      return "error";
  }
  return "?";
}

}  // namespace dhtidx::net
