// Whole-fabric invariant auditing (the machine-checked half of the paper's
// correctness argument): every injected flit is exactly-once accounted for
// across VC buffers, link phits, retransmission slots, the purge log and
// the NI sinks; credit counters match free buffer slots; retransmission
// slots are never leaked past an ACK or purge; and no router starves past a
// configurable horizon without the saturation detector firing.
//
// The auditor is a FlitAuditObserver: the network pushes lifecycle events
// (injected / delivered / purged) into a per-uid ledger, and on_cycle_end()
// walks a census of every resident flit (Network::for_each_resident) against
// that ledger. Anything that does not reconcile becomes a Violation,
// annotated with the tail of the event trace when a sink is attached.
//
// The ledger is a flat open-addressing table, so the census costs one O(1)
// lookup per resident flit plus one pass over the table; each entry carries
// the census epoch (the audit number) of its last sighting, and entries not
// seen this epoch are the lost or retired flits. The census verdicts are
// gathered first and recorded sorted by uid, so violation order never
// depends on table layout.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "trace/sink.hpp"

namespace htnoc::verify {

enum class ViolationKind : std::uint8_t {
  kFlitLoss,            ///< Ledger-resident flit absent from the census.
  kDuplicateDelivery,   ///< A flit was consumed by an NI sink twice.
  kPurgeLeak,           ///< Flit of a purged packet still resident.
  kAckSlotLeak,         ///< Delivered flit still resident past the grace.
  kUnknownFlit,         ///< Resident/delivered flit never injected.
  kCreditConservation,  ///< Per-(link, VC) credit accounting broke.
  kSilentStarvation,    ///< Starved VC with no saturation report.
};

[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

struct AuditConfig {
  bool enabled = false;
  /// Audit every `period` cycles (1 = every cycle).
  Cycle period = 1;
  /// Cycles a delivered flit may remain resident upstream while its final
  /// ACK clears the retransmission slot (reverse channel is 1 cycle; 8
  /// leaves slack for the de-obfuscation penalty).
  Cycle ack_grace = 8;
  /// Cycles a ready front flit may sit unserved, with no saturation report
  /// on its router, before the auditor calls it silent starvation.
  Cycle deadlock_horizon = 250;
  /// Stop recording after this many violations (the first is the story).
  std::size_t max_violations = 16;
  /// Trace events of context attached to each violation (when a sink is
  /// installed).
  std::size_t trace_context = 8;
};

struct Violation {
  Cycle cycle = 0;
  ViolationKind kind = ViolationKind::kFlitLoss;
  std::uint64_t uid = 0;             ///< Flit uid, or a kind-specific key.
  PacketId packet = kInvalidPacket;  ///< kInvalidPacket when not per-packet.
  std::string detail;
  /// Tail of the event trace at detection time (empty without a sink).
  std::vector<trace::Event> context;

  [[nodiscard]] std::string to_string() const;
};

class NetworkInvariantAuditor final : public FlitAuditObserver {
 public:
  NetworkInvariantAuditor(Network& net, AuditConfig cfg)
      : net_(net), cfg_(cfg) {}

  /// Attach the trace sink whose tail is copied into violations.
  void set_trace_sink(const trace::TraceSink* sink) { sink_ = sink; }

  // --- FlitAuditObserver ---
  void on_packet_injected(Cycle now, const PacketInfo& info) override;
  void on_flit_delivered(Cycle now, const Flit& flit) override;
  void on_flits_purged(Cycle now, PacketId p,
                       const std::vector<std::uint64_t>& uids) override;

  /// Run the per-cycle checks (subject to cfg.period). Call after the
  /// network has fully stepped the cycle.
  void on_cycle_end();

  [[nodiscard]] bool clean() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t audits_run() const noexcept {
    return audits_run_;
  }
  [[nodiscard]] std::uint64_t flits_tracked() const noexcept {
    return flits_tracked_;
  }

  /// Human-readable report of every recorded violation (empty when clean).
  [[nodiscard]] std::string report() const;

 private:
  friend struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)

  struct LedgerEntry {
    enum class State : std::uint8_t { kResident, kDelivered, kPurged };
    PacketId packet = kInvalidPacket;
    State state = State::kResident;
    Cycle since = 0;  ///< Cycle of the last state change.
  };

  /// uid -> LedgerEntry: linear probing over a power-of-two table kept at
  /// most half full, backward-shift deletion (no tombstones). A probe and
  /// the per-audit pass over `seen` touch only the 16-byte key lane; the
  /// entries live in a parallel lane. Allocates on first insert and only
  /// grows.
  class Ledger {
   public:
    static constexpr std::size_t kNone = ~std::size_t{0};
    /// `seen` of a free slot (audit numbers never reach it).
    static constexpr std::uint64_t kFree = ~std::uint64_t{0};

    /// Slot of `uid`, or kNone.
    [[nodiscard]] std::size_t find(std::uint64_t uid) const noexcept;
    /// Slot of `uid`; when absent (`inserted`) it gets seen 0 and a
    /// default entry.
    std::size_t insert(std::uint64_t uid, bool& inserted);
    void erase(std::uint64_t uid) noexcept;
    void clear() noexcept;
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept {
      return keys_.size();
    }
    [[nodiscard]] std::uint64_t uid(std::size_t i) const noexcept {
      return keys_[i].uid;
    }
    /// Audit number of the slot's last census sighting; kFree when free.
    [[nodiscard]] std::uint64_t& seen(std::size_t i) noexcept {
      return keys_[i].seen;
    }
    [[nodiscard]] LedgerEntry& entry(std::size_t i) noexcept {
      return entries_[i];
    }
    /// Occupied slots in uid order (the snapshot layout).
    [[nodiscard]] std::vector<std::size_t> sorted() const;

   private:
    [[nodiscard]] std::size_t home(std::uint64_t uid) const noexcept;
    void rehash(std::size_t capacity);

    struct Key {
      std::uint64_t uid = 0;
      std::uint64_t seen = kFree;
    };
    std::vector<Key> keys_;
    std::vector<LedgerEntry> entries_;
    std::size_t size_ = 0;
    int shift_ = 64;  ///< 64 - log2(capacity): Fibonacci hashing.
  };

  /// A census verdict awaiting uid-ordered recording.
  struct Candidate {
    std::uint64_t uid = 0;
    ViolationKind kind = ViolationKind::kFlitLoss;
    PacketId packet = kInvalidPacket;
    Cycle since = 0;  ///< The ledger entry's, for the detail text.
  };

  /// Per-(router, port, vc) head-of-line progress watch.
  struct HolWatch {
    PacketId packet = kInvalidPacket;
    int next_seq = -1;
    Cycle ready_since = 0;
  };

  void audit(Cycle now);
  void check_census(Cycle now);
  /// Detail text of a census verdict. The site named (and, for an unknown
  /// flit, the packet) is the uid's first entry in uid-sorted census order:
  /// a flit may be resident at several sites at once.
  [[nodiscard]] std::string census_detail(Candidate& c);
  void check_starvation(Cycle now);
  /// Mark (kind, key) reported. True when it was not reported before
  /// (repeats of a persistent condition across audit cycles are
  /// suppressed) and the violation list still has room: the caller then
  /// words the violation and records it.
  [[nodiscard]] bool admit(ViolationKind kind, std::uint64_t key);
  void record(Cycle now, ViolationKind kind, std::uint64_t uid, PacketId packet,
              std::string detail);

  Network& net_;
  AuditConfig cfg_;
  const trace::TraceSink* sink_ = nullptr;

  Ledger ledger_;
  std::vector<Violation> violations_;
  std::set<std::pair<std::uint64_t, int>> reported_;
  // Per-audit scratch, reused across audits.
  std::vector<Candidate> candidates_;
  /// The uid-sorted census, built only on audits that word a site-bearing
  /// verdict.
  std::vector<ResidentFlit> census_;
  std::vector<std::uint64_t> retired_;  ///< Ledger uids to erase.
  std::vector<HolWatch> hol_;  ///< Indexed router-major.
  std::uint64_t audits_run_ = 0;
  std::uint64_t flits_tracked_ = 0;
};

}  // namespace htnoc::verify
