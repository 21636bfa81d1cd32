#include "ptg/view_intern.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace topocon {

namespace {

[[noreturn]] void die(const char* message) {
  std::fprintf(stderr, "ViewInterner misuse: %s\n", message);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void ViewInterner::check_owner() {
  const std::thread::id self = std::this_thread::get_id();
  if (owner_.load(std::memory_order_relaxed) == self) return;
  std::thread::id expected{};
  if (!owner_.compare_exchange_strong(expected, self,
                                      std::memory_order_relaxed)) {
    die(
        "mutated from a second thread; interners are single-threaded -- "
        "give each shard its own instance and merge with absorb(), or "
        "declare a sequential hand-off with attach_to_current_thread()");
  }
}

void ViewInterner::attach_to_current_thread() {
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

ViewId ViewInterner::base(ProcessId p, Value x) {
  check_owner();
  assert(p >= 0 && x >= 0);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(x);
  const auto [it, inserted] =
      base_table_.try_emplace(key, static_cast<ViewId>(records_.size()));
  if (inserted) {
    Record record;
    record.process = p;
    record.depth = 0;
    record.input = x;
    records_.push_back(record);
  }
  return it->second;
}

ViewId ViewInterner::step(ProcessId q, NodeMask mask,
                          const std::vector<ViewId>& sender_ids) {
  return step_ids(q, mask, sender_ids.data(), sender_ids.size());
}

std::uint64_t ViewInterner::step_hash(ProcessId q, NodeMask mask,
                                      const ViewId* senders,
                                      std::size_t count) {
  std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(q))
                     << 32) ^
                    mask;
  h *= 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    h = (h ^ static_cast<std::uint32_t>(senders[i])) * 0xff51afd7ed558ccdull;
  }
  return h ^ (h >> 29);
}

void ViewInterner::grow_step_slots() {
  std::vector<StepSlot> next(
      step_slots_.empty() ? 1024 : step_slots_.size() * 2);
  const std::size_t slot_mask = next.size() - 1;
  for (const StepSlot& slot : step_slots_) {
    if (slot.id < 0) continue;
    std::size_t pos = slot.hash & slot_mask;
    while (next[pos].id >= 0) pos = (pos + 1) & slot_mask;
    next[pos] = slot;
  }
  step_slots_ = std::move(next);
}

ViewId ViewInterner::step_ids(ProcessId q, NodeMask mask,
                              const ViewId* senders, std::size_t count) {
  check_owner();
  assert(mask_contains(mask, q));  // self-loop invariant
  if (std::popcount(mask) != static_cast<int>(count)) {
    die("step() sender count does not match the in-mask popcount");
  }
#ifndef NDEBUG
  // The k-th sender id must be the view of the k-th process in the mask
  // (increasing process order) and all senders must sit at one depth --
  // the shape advance() produces. Catches hand-rolled unsorted calls.
  {
    NodeMask rest = mask;
    for (std::size_t k = 0; k < count; ++k) {
      const ViewId id = senders[k];
      assert(id >= 0 && static_cast<std::size_t>(id) < records_.size() &&
             "step() sender id not interned here");
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      const Record& sender = records_[static_cast<std::size_t>(id)];
      assert(sender.process == p &&
             "step() sender ids not in increasing process (mask) order");
      assert(sender.depth ==
                 records_[static_cast<std::size_t>(senders[0])].depth &&
             "step() senders at mixed depths");
    }
  }
#endif
  if ((step_count_ + 1) * 10 > step_slots_.size() * 7) grow_step_slots();
  const std::size_t slot_mask = step_slots_.size() - 1;
  const auto hash =
      static_cast<std::uint32_t>(step_hash(q, mask, senders, count));
  std::size_t pos = hash & slot_mask;
  while (true) {
    const StepSlot slot = step_slots_[pos];
    if (slot.id < 0) break;
    if (slot.hash == hash) {
      const Record& r = records_[static_cast<std::size_t>(slot.id)];
      if (r.process == q && r.mask == mask && r.num_senders == count &&
          std::equal(senders, senders + count,
                     sender_pool_.data() + r.first_sender)) {
        return slot.id;
      }
    }
    pos = (pos + 1) & slot_mask;
  }
  const auto id = static_cast<ViewId>(records_.size());
  Record record;
  record.process = q;
  // Depth = sender depth + 1; the self-loop guarantees q itself appears
  // among the senders, so every step node has depth >= 1.
  record.depth = records_[static_cast<std::size_t>(senders[0])].depth + 1;
  record.mask = mask;
  record.first_sender = sender_pool_.size();
  record.num_senders = static_cast<std::uint32_t>(count);
  sender_pool_.insert(sender_pool_.end(), senders, senders + count);
  records_.push_back(record);
  step_slots_[pos] = StepSlot{id, hash};
  ++step_count_;
  return id;
}

ViewVector ViewInterner::initial(const InputVector& inputs) {
  ViewVector views(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    views[p] = base(static_cast<ProcessId>(p), inputs[p]);
  }
  return views;
}

ViewVector ViewInterner::advance(const ViewVector& views, const Digraph& g) {
  const int n = g.num_processes();
  assert(static_cast<std::size_t>(n) == views.size());
  ViewVector next(views.size());
  std::vector<ViewId> senders;
  for (int q = 0; q < n; ++q) {
    const NodeMask mask = g.in_mask(q);
    senders.clear();
    NodeMask rest = mask;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      senders.push_back(views[static_cast<std::size_t>(p)]);
    }
    next[static_cast<std::size_t>(q)] = step(q, mask, senders);
  }
  return next;
}

ViewVector ViewInterner::of_prefix(const RunPrefix& prefix) {
  ViewVector views = initial(prefix.inputs);
  for (const Digraph& g : prefix.graphs) {
    views = advance(views, g);
  }
  return views;
}

std::vector<ViewId> ViewInterner::absorb(const ViewInterner& other) {
  check_owner();
  std::vector<ViewId> remap;
  remap.reserve(other.records_.size());
  std::vector<ViewId> senders;
  for (const Record& record : other.records_) {
    if (record.depth == 0) {
      remap.push_back(base(record.process, record.input));
      continue;
    }
    senders.clear();
    for (std::uint32_t k = 0; k < record.num_senders; ++k) {
      // Step nodes only reference earlier ids, so the remap entry exists.
      senders.push_back(remap[static_cast<std::size_t>(
          other.sender_pool_[record.first_sender + k])]);
    }
    remap.push_back(
        step_ids(record.process, record.mask, senders.data(), senders.size()));
  }
  return remap;
}

}  // namespace topocon
