// Run-time communication channels (§II-B and §IV).
//
// Base model: a size-1 register — a new token overwrites the old one and
// readers always see the latest value (implicit communication).  The §IV
// optimization generalizes a channel to a FIFO holding the last n tokens:
// writes enqueue and evict the oldest when full; reads are non-destructive
// and return the *oldest* buffered token, which in steady state is
// (n−1)·T(producer) older than the newest — the window shift of Lemma 6.
//
// Test-only: the reference engine's channel (reference_engine.hpp).  The
// shipped Simulator keeps its channels as ring buffers of POD slots.

#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/error.hpp"
#include "common/time.hpp"
#include "graph/task.hpp"
#include "sim_oracle/provenance.hpp"

namespace ceta {

/// A data token travelling through a channel.
struct Token {
  /// Producing task and its job index (for backward-chain reconstruction).
  TaskId producer_task = 0;
  std::int64_t producer_job = -1;
  /// Release time of the producing job.
  Instant producer_release;
  /// Instant the token was written (producer's finish time).
  Instant write_time;
  /// Source-sample summary.
  Provenance provenance;
};

/// Runtime state of one edge's channel.
class SimChannel {
 public:
  explicit SimChannel(int capacity) : capacity_(capacity) {
    CETA_EXPECTS(capacity >= 1, "SimChannel: capacity must be >= 1");
  }

  int capacity() const { return capacity_; }
  std::size_t size() const { return buffer_.size(); }
  bool full() const { return buffer_.size() == static_cast<std::size_t>(capacity_); }

  /// Enqueue a token; evicts the oldest when the buffer is full.
  void write(Token token);

  /// The token a starting job reads: the oldest buffered one (equals the
  /// newest for capacity 1).  nullopt while the channel is empty.
  std::optional<Token> read() const;

  /// The most recently written token (diagnostics).
  std::optional<Token> newest() const;

 private:
  int capacity_;
  std::deque<Token> buffer_;
};

}  // namespace ceta
