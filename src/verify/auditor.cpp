#include "verify/auditor.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace htnoc::verify {

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kFlitLoss: return "flit_loss";
    case ViolationKind::kDuplicateDelivery: return "duplicate_delivery";
    case ViolationKind::kPurgeLeak: return "purge_leak";
    case ViolationKind::kAckSlotLeak: return "ack_slot_leak";
    case ViolationKind::kUnknownFlit: return "unknown_flit";
    case ViolationKind::kCreditConservation: return "credit_conservation";
    case ViolationKind::kSilentStarvation: return "silent_starvation";
  }
  return "?";
}

namespace {

/// FNV-1a — a stable dedup key for string-valued violations.
std::uint64_t hash_detail(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t uid_of(PacketId p, int seq) noexcept {
  return (static_cast<std::uint64_t>(p) << 8) ^
         static_cast<std::uint64_t>(seq & 0xFF);
}

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "cycle " << cycle << ": " << verify::to_string(kind);
  if (packet != kInvalidPacket) os << " packet=" << packet;
  if (uid != 0) os << " uid=0x" << std::hex << uid << std::dec;
  if (!detail.empty()) os << " — " << detail;
  if (!context.empty()) os << " [" << context.size() << " trace events]";
  return os.str();
}

// --- Ledger ----------------------------------------------------------------

std::size_t NetworkInvariantAuditor::Ledger::home(
    std::uint64_t uid) const noexcept {
  // Fibonacci hashing: uids are (packet << 8 | seq), so consecutive packets
  // differ only in the middle bits; the multiply spreads them over the top.
  return static_cast<std::size_t>((uid * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t NetworkInvariantAuditor::Ledger::find(
    std::uint64_t uid) const noexcept {
  if (size_ == 0) return kNone;
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = home(uid);; i = (i + 1) & mask) {
    if (keys_[i].seen == kFree) return kNone;
    if (keys_[i].uid == uid) return i;
  }
}

std::size_t NetworkInvariantAuditor::Ledger::insert(std::uint64_t uid,
                                                    bool& inserted) {
  if (2 * (size_ + 1) > keys_.size()) {
    rehash(keys_.empty() ? 64 : 2 * keys_.size());
  }
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = home(uid);
  while (keys_[i].seen != kFree && keys_[i].uid != uid) i = (i + 1) & mask;
  inserted = keys_[i].seen == kFree;
  if (inserted) {
    keys_[i] = Key{uid, 0};
    entries_[i] = LedgerEntry{};
    ++size_;
  }
  return i;
}

void NetworkInvariantAuditor::Ledger::erase(std::uint64_t uid) noexcept {
  std::size_t hole = find(uid);
  if (hole == kNone) return;
  const std::size_t mask = keys_.size() - 1;
  // Backward shift: pull each later member of the probe run into the hole
  // unless its home lies cyclically in (hole, j] (moving it would put it
  // before its home).
  for (std::size_t j = (hole + 1) & mask; keys_[j].seen != kFree;
       j = (j + 1) & mask) {
    const std::size_t h = home(keys_[j].uid);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    keys_[hole] = keys_[j];
    entries_[hole] = entries_[j];
    hole = j;
  }
  keys_[hole].seen = kFree;
  --size_;
}

void NetworkInvariantAuditor::Ledger::clear() noexcept {
  for (Key& k : keys_) k.seen = kFree;
  size_ = 0;
}

void NetworkInvariantAuditor::Ledger::rehash(std::size_t capacity) {
  std::vector<Key> keys(capacity);
  std::vector<LedgerEntry> entries(capacity);
  keys.swap(keys_);
  entries.swap(entries_);
  shift_ = 64 - std::countr_zero(capacity);
  size_ = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].seen == kFree) continue;
    bool inserted = false;
    const std::size_t t = insert(keys[i].uid, inserted);
    keys_[t].seen = keys[i].seen;
    entries_[t] = entries[i];
  }
}

std::vector<std::size_t> NetworkInvariantAuditor::Ledger::sorted() const {
  std::vector<std::size_t> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i].seen != kFree) out.push_back(i);
  }
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return keys_[a].uid < keys_[b].uid;
  });
  return out;
}

// --- Lifecycle events --------------------------------------------------------

void NetworkInvariantAuditor::on_packet_injected(Cycle now,
                                                 const PacketInfo& info) {
  for (int seq = 0; seq < info.length; ++seq) {
    const std::uint64_t uid = uid_of(info.id, seq);
    bool inserted = false;
    const std::size_t i = ledger_.insert(uid, inserted);
    if (!inserted && admit(ViolationKind::kUnknownFlit, uid)) {
      record(now, ViolationKind::kUnknownFlit, uid, info.id,
             "packet id reused at injection");
    }
    ledger_.entry(i) = LedgerEntry{info.id, LedgerEntry::State::kResident, now};
    ++flits_tracked_;
  }
}

void NetworkInvariantAuditor::on_flit_delivered(Cycle now, const Flit& flit) {
  const std::uint64_t uid = flit.flit_uid();
  const std::size_t i = ledger_.find(uid);
  if (i == Ledger::kNone) {
    if (admit(ViolationKind::kUnknownFlit, uid)) {
      record(now, ViolationKind::kUnknownFlit, uid, flit.packet,
             "delivered flit was never injected");
    }
    return;
  }
  LedgerEntry& e = ledger_.entry(i);
  switch (e.state) {
    case LedgerEntry::State::kResident:
      e.state = LedgerEntry::State::kDelivered;
      e.since = now;
      break;
    case LedgerEntry::State::kDelivered:
      if (admit(ViolationKind::kDuplicateDelivery, uid)) {
        record(now, ViolationKind::kDuplicateDelivery, uid, flit.packet,
               "flit consumed by an ejection sink twice");
      }
      break;
    case LedgerEntry::State::kPurged:
      if (admit(ViolationKind::kPurgeLeak, uid)) {
        record(now, ViolationKind::kPurgeLeak, uid, flit.packet,
               "flit delivered after its packet was purged");
      }
      break;
  }
}

void NetworkInvariantAuditor::on_flits_purged(
    Cycle now, PacketId p, const std::vector<std::uint64_t>& uids) {
  for (const std::uint64_t uid : uids) {
    const std::size_t i = ledger_.find(uid);
    if (i == Ledger::kNone) {
      if (admit(ViolationKind::kUnknownFlit, uid)) {
        record(now, ViolationKind::kUnknownFlit, uid, p,
               "purged flit was never injected");
      }
      continue;
    }
    ledger_.entry(i).state = LedgerEntry::State::kPurged;
    ledger_.entry(i).since = now;
  }
  // The purge claims the whole packet left the fabric, so flip every
  // still-resident flit of `p` — not only the listed uids. A purge that
  // skipped a slot (and its uid) is then still caught by the census as a
  // kPurgeLeak instead of silently passing as "resident".
  const std::uint64_t lo = uid_of(p, 0);
  for (std::uint64_t seq = 0; seq <= 0xFF; ++seq) {
    const std::size_t i = ledger_.find(lo | seq);
    if (i == Ledger::kNone) continue;
    LedgerEntry& e = ledger_.entry(i);
    if (e.packet == p && e.state == LedgerEntry::State::kResident) {
      e.state = LedgerEntry::State::kPurged;
      e.since = now;
    }
  }
}

// --- Per-cycle checks --------------------------------------------------------

void NetworkInvariantAuditor::on_cycle_end() {
  const Cycle now = net_.now();
  if (cfg_.period > 1 && now % cfg_.period != 0) return;
  ++audits_run_;
  audit(now);
}

void NetworkInvariantAuditor::audit(Cycle now) {
  check_census(now);
  const std::string credit = net_.check_invariants();
  if (!credit.empty()) {
    const std::uint64_t key = hash_detail(credit);
    if (admit(ViolationKind::kCreditConservation, key)) {
      record(now, ViolationKind::kCreditConservation, key, kInvalidPacket,
             credit);
    }
  }
  check_starvation(now);
}

void NetworkInvariantAuditor::check_census(Cycle now) {
  const std::uint64_t epoch = audits_run_;
  candidates_.clear();

  // Census side: stamp every sighted ledger entry with this epoch. A flit
  // may occupy several sites at once (slot + receiver buffer while the ACK
  // is in flight); its first sighting gives the verdict for all of them.
  net_.for_each_resident([&](const ResidentFlit& r) {
    const std::size_t i = ledger_.find(r.uid);
    if (i == Ledger::kNone) {
      // A flit that was never injected (duplicates merge below).
      candidates_.push_back({r.uid, ViolationKind::kUnknownFlit, r.packet, 0});
      return;
    }
    if (ledger_.seen(i) == epoch) return;
    ledger_.seen(i) = epoch;
    const LedgerEntry& e = ledger_.entry(i);
    if (e.state == LedgerEntry::State::kPurged) {
      candidates_.push_back(
          {r.uid, ViolationKind::kPurgeLeak, e.packet, e.since});
    } else if (e.state == LedgerEntry::State::kDelivered &&
               now > e.since + cfg_.ack_grace) {
      candidates_.push_back(
          {r.uid, ViolationKind::kAckSlotLeak, e.packet, e.since});
    }
  });

  // Ledger side: entries the census did not sight.
  retired_.clear();
  const std::size_t capacity = ledger_.capacity();
  for (std::size_t i = 0; i < capacity; ++i) {
    // Occupied slots hold seen <= epoch and free ones kFree, so one
    // comparison finds the unsighted entries.
    if (ledger_.seen(i) >= epoch) continue;
    const LedgerEntry& e = ledger_.entry(i);
    if (e.state == LedgerEntry::State::kResident) {
      candidates_.push_back(
          {ledger_.uid(i), ViolationKind::kFlitLoss, e.packet, e.since});
      retired_.push_back(ledger_.uid(i));
    } else if (now > e.since + cfg_.ack_grace) {
      // Fully retired (delivered/purged, no residue left): garbage-collect
      // so the ledger tracks only in-flight and recently-retired flits.
      retired_.push_back(ledger_.uid(i));
    }
  }
  for (const std::uint64_t uid : retired_) ledger_.erase(uid);
  if (candidates_.empty()) return;

  // Record in uid order, one verdict per uid.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.uid < b.uid;
            });
  census_.clear();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (i > 0 && candidates_[i - 1].uid == candidates_[i].uid) continue;
    Candidate c = candidates_[i];
    if (!admit(c.kind, c.uid)) continue;
    std::string detail = census_detail(c);
    record(now, c.kind, c.uid, c.packet, std::move(detail));
  }
}

std::string NetworkInvariantAuditor::census_detail(Candidate& c) {
  std::ostringstream os;
  if (c.kind == ViolationKind::kFlitLoss) {
    os << "flit vanished from the fabric (resident since cycle " << c.since
       << ")";
    return os.str();
  }
  // The uid-sorted census decides which of a flit's sites is named. It is
  // only built on the rare audits that record a site-bearing verdict.
  const auto by_uid = [](const ResidentFlit& a, const ResidentFlit& b) {
    return a.uid < b.uid;
  };
  if (census_.empty()) {
    net_.collect_resident(census_);
    std::sort(census_.begin(), census_.end(), by_uid);
  }
  const ResidentFlit& r = *std::lower_bound(census_.begin(), census_.end(),
                                            ResidentFlit{c.uid}, by_uid);
  const auto site = [&] {
    os << htnoc::to_string(r.site) << " node=" << r.node
       << " port=" << static_cast<int>(r.port);
  };
  switch (c.kind) {
    case ViolationKind::kUnknownFlit:
      c.packet = r.packet;  // no ledger entry: the census names the packet
      os << "resident flit without an injection record at ";
      site();
      break;
    case ViolationKind::kPurgeLeak:
      os << "flit of purged packet still resident at ";
      site();
      break;
    default:  // kAckSlotLeak
      os << "flit delivered at cycle " << c.since << " still resident at ";
      site();
      os << " (ACK never cleared the slot?)";
      break;
  }
  return os.str();
}

void NetworkInvariantAuditor::check_starvation(Cycle now) {
  const auto& geom = net_.geometry();
  const int routers = geom.num_routers();
  if (routers == 0) return;
  const int ports = net_.router(0).num_ports();
  const int vcs = net_.config().vcs_per_port;
  hol_.resize(static_cast<std::size_t>(routers) *
              static_cast<std::size_t>(ports) * static_cast<std::size_t>(vcs));

  HolWatch* watch = hol_.data();  // router-major, then port, then VC
  for (int r = 0; r < routers; ++r) {
    Router& router = net_.router(static_cast<RouterId>(r));
    // Any blocked output port means the saturation machinery has fired (or
    // would, were anyone sampling): back-pressure stalls on this router are
    // accounted for and not "silent". Probed only when a watch needs it.
    enum class Blocked : std::uint8_t { kUnknown, kNo, kYes };
    Blocked blocked = Blocked::kUnknown;
    for (int p = 0; p < ports; ++p) {
      const InputUnit& in = router.input(p);
      for (int vc = 0; vc < vcs; ++vc) {
        HolWatch& w = *watch++;
        const auto& buf = in.vcbuf(vc);
        // Only committed (kActive) streams are watched: a stream holding an
        // output VC with its in-order flit ready has nothing between it and
        // the crossbar except arbitration (fair) or back-pressure (which
        // shows up as a blocked output port above).
        if (buf.streams.empty() ||
            buf.streams.front().state != InputUnit::PacketStream::State::kActive ||
            !in.front_flit_ready(now, vc)) {
          if (w.packet != kInvalidPacket) w = HolWatch{};
          continue;
        }
        const InputUnit::PacketStream& s = buf.streams.front();
        if (w.packet != s.packet || w.next_seq != s.next_seq) {
          w.packet = s.packet;
          w.next_seq = s.next_seq;
          w.ready_since = now;
          continue;
        }
        if (blocked == Blocked::kUnknown) {
          blocked = Blocked::kNo;
          for (int op = 0; op < ports; ++op) {
            if (router.output(op).blocked(now)) {
              blocked = Blocked::kYes;
              break;
            }
          }
        }
        if (blocked == Blocked::kYes) {
          // Progress is legitimately stalled; restart the clock so the watch
          // re-arms only after the congestion report clears.
          w.ready_since = now;
          continue;
        }
        if (now - w.ready_since >= cfg_.deadlock_horizon) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(r) << 32) |
              (static_cast<std::uint64_t>(p) << 16) |
              static_cast<std::uint64_t>(vc);
          if (admit(ViolationKind::kSilentStarvation, key)) {
            std::ostringstream os;
            os << "router " << r << " port " << p << " vc " << vc
               << ": in-order flit of packet " << s.packet << " (seq "
               << s.next_seq << ") ready but unserved for "
               << (now - w.ready_since)
               << " cycles with no blocked-port report";
            record(now, ViolationKind::kSilentStarvation, key, s.packet,
                   os.str());
          }
          w.ready_since = now;  // re-arm instead of re-reporting every cycle
        }
      }
    }
  }
}

bool NetworkInvariantAuditor::admit(ViolationKind kind, std::uint64_t key) {
  const bool fresh = reported_.emplace(key, static_cast<int>(kind)).second;
  return fresh && violations_.size() < cfg_.max_violations;
}

void NetworkInvariantAuditor::record(Cycle now, ViolationKind kind,
                                     std::uint64_t uid, PacketId packet,
                                     std::string detail) {
  Violation v;
  v.cycle = now;
  v.kind = kind;
  v.uid = uid;
  v.packet = packet;
  v.detail = std::move(detail);
  if (sink_ != nullptr && cfg_.trace_context > 0) {
    std::vector<trace::Event> tail = sink_->snapshot();
    if (tail.size() > cfg_.trace_context) {
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(cfg_.trace_context));
    }
    v.context = std::move(tail);
  }
  violations_.push_back(std::move(v));
}

std::string NetworkInvariantAuditor::report() const {
  std::ostringstream os;
  for (const Violation& v : violations_) os << v.to_string() << "\n";
  return os.str();
}

}  // namespace htnoc::verify
