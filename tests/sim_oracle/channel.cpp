#include "sim_oracle/channel.hpp"

namespace ceta {

void SimChannel::write(Token token) {
  if (full()) buffer_.pop_front();
  buffer_.push_back(std::move(token));
}

std::optional<Token> SimChannel::read() const {
  if (buffer_.empty()) return std::nullopt;
  return buffer_.front();
}

std::optional<Token> SimChannel::newest() const {
  if (buffer_.empty()) return std::nullopt;
  return buffer_.back();
}

}  // namespace ceta
