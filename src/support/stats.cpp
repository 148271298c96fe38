#include "support/stats.hpp"

#include <sstream>

namespace concert {

NodeStats& NodeStats::operator+=(const NodeStats& o) {
  stack_calls += o.stack_calls;
  stack_completions += o.stack_completions;
  spec_stack_calls += o.spec_stack_calls;
  fallbacks += o.fallbacks;
  heap_invokes += o.heap_invokes;
  local_invokes += o.local_invokes;
  remote_invokes += o.remote_invokes;
  contexts_allocated += o.contexts_allocated;
  contexts_freed += o.contexts_freed;
  suspensions += o.suspensions;
  resumptions += o.resumptions;
  proxy_contexts += o.proxy_contexts;
  continuations_created += o.continuations_created;
  continuations_forwarded += o.continuations_forwarded;
  msgs_sent += o.msgs_sent;
  msgs_received += o.msgs_received;
  bytes_sent += o.bytes_sent;
  replies_sent += o.replies_sent;
  outbox_flushes += o.outbox_flushes;
  bundles_sent += o.bundles_sent;
  bundles_received += o.bundles_received;
  msgs_coalesced += o.msgs_coalesced;
  comm_instructions += o.comm_instructions;
  inbox_batches += o.inbox_batches;
  inbox_batched_msgs += o.inbox_batched_msgs;
  if (o.inbox_batch_max > inbox_batch_max) inbox_batch_max = o.inbox_batch_max;
  inbox_parks += o.inbox_parks;
  park_wakeups += o.park_wakeups;
  loc_cache_hits += o.loc_cache_hits;
  loc_cache_misses += o.loc_cache_misses;
  loc_cache_invalidations += o.loc_cache_invalidations;
  cache_evictions += o.cache_evictions;
  ctx_fresh += o.ctx_fresh;
  ctx_recycled += o.ctx_recycled;
  arena_slab_bytes += o.arena_slab_bytes;
  arena_resets += o.arena_resets;
  payload_acquires += o.payload_acquires;
  payload_pool_hits += o.payload_pool_hits;
  payload_releases += o.payload_releases;
  payload_discards += o.payload_discards;
  payload_moves += o.payload_moves;
  thread_pins += o.thread_pins;
  wave_runs += o.wave_runs;
  wave_msgs += o.wave_msgs;
  if (o.wave_max > wave_max) wave_max = o.wave_max;
  msgs_dropped_trace += o.msgs_dropped_trace;
  for (std::size_t i = 0; i < kBundleBuckets; ++i) bundle_size_hist[i] += o.bundle_size_hist[i];
  return *this;
}

void NodeStats::record_bundle(std::size_t n) {
  std::size_t b;
  if (n <= 4) {
    b = n > 0 ? n - 1 : 0;
  } else if (n <= 8) {
    b = 4;
  } else if (n <= 16) {
    b = 5;
  } else if (n <= 32) {
    b = 6;
  } else {
    b = 7;
  }
  ++bundle_size_hist[b];
}

std::string NodeStats::summary() const {
  std::ostringstream os;
  os << "invocations: stack=" << stack_calls << " (completed " << stack_completions
     << ", fell back " << fallbacks << "), heap=" << heap_invokes << ", local=" << local_invokes
     << ", remote=" << remote_invokes << "\n"
     << "contexts: alloc=" << contexts_allocated << " free=" << contexts_freed
     << " suspend=" << suspensions << " resume=" << resumptions << " proxy=" << proxy_contexts
     << "\n"
     << "continuations: created=" << continuations_created << " forwarded="
     << continuations_forwarded << "\n"
     << "messages: sent=" << msgs_sent << " recv=" << msgs_received << " bytes=" << bytes_sent
     << " replies=" << replies_sent << "\n"
     << "comms: flushes=" << outbox_flushes << " bundles=" << bundles_sent << " coalesced="
     << msgs_coalesced << " mean_bundle=" << mean_bundle_size() << " overhead_insns="
     << comm_instructions << "\n"
     << "bundle size hist [1,2,3,4,5-8,9-16,17-32,33+]:";
  for (std::size_t i = 0; i < kBundleBuckets; ++i) os << " " << bundle_size_hist[i];
  os << "\n"
     << "inbox: batches=" << inbox_batches << " drained=" << inbox_batched_msgs
     << " mean_batch=" << mean_inbox_batch() << " max_batch=" << inbox_batch_max
     << " parks=" << inbox_parks << " wakeups=" << park_wakeups << "\n"
     << "location cache: hits=" << loc_cache_hits << " misses=" << loc_cache_misses
     << " invalidations=" << loc_cache_invalidations << " evictions=" << cache_evictions << "\n"
     << "memory: ctx_fresh=" << ctx_fresh << " ctx_recycled=" << ctx_recycled
     << " slab_bytes=" << arena_slab_bytes << " resets=" << arena_resets << "\n"
     << "payloads: acquires=" << payload_acquires << " pool_hits=" << payload_pool_hits
     << " releases=" << payload_releases << " discards=" << payload_discards
     << " moves=" << payload_moves << "\n"
     << "waves: runs=" << wave_runs << " msgs=" << wave_msgs
     << " mean=" << mean_wave_size() << " max=" << wave_max << "\n"
     << "trace: dropped=" << msgs_dropped_trace << "\n";
  return os.str();
}

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  sum_ += x;
  ++n_;
}

}  // namespace concert
