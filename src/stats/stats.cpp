#include "stats/stats.hpp"

#include <iomanip>

namespace htnoc::stats {

void UtilizationProbe::print_csv(std::ostream& os, Cycle origin,
                                 const std::string& label) const {
  os << "# " << label << '\n'
     << "cycle,input_port,output_port,injection_port,all_cores_full,"
        "majority_cores_full,port_blocked\n";
  for (const auto& s : samples_) {
    const auto rebased =
        static_cast<long long>(s.cycle) - static_cast<long long>(origin);
    os << rebased << ',' << s.input_port_flits << ',' << s.output_port_flits
       << ',' << s.injection_port_flits << ',' << s.routers_all_cores_full
       << ',' << s.routers_majority_cores_full << ','
       << s.routers_with_blocked_port << '\n';
  }
}

void TrafficMatrix::print_matrix(std::ostream& os) const {
  const int nr = geom_.num_routers();
  os << "src\\dst";
  for (int d = 0; d < nr; ++d) os << std::setw(7) << d;
  os << '\n';
  for (int s = 0; s < nr; ++s) {
    os << std::setw(7) << s;
    for (int d = 0; d < nr; ++d) {
      os << std::setw(7) << counts_[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)];
    }
    os << '\n';
  }
}

void TrafficMatrix::print_source_heatmap(std::ostream& os) const {
  for (int y = 0; y < geom_.height(); ++y) {
    for (int x = 0; x < geom_.width(); ++x) {
      os << std::setw(9) << row_total(geom_.router_at({x, y}));
    }
    os << '\n';
  }
}

std::vector<LinkLoad> measure_link_loads(Network& net) {
  std::vector<LinkLoad> loads;
  std::uint64_t total = 0;
  for (const LinkRef& l : net.all_links()) {
    LinkLoad ld;
    ld.link = l;
    ld.phits = net.link(l.from, l.dir).stats().phits_sent;
    total += ld.phits;
    loads.push_back(ld);
  }
  for (auto& ld : loads) {
    ld.share = total == 0 ? 0.0
                          : static_cast<double>(ld.phits) /
                                static_cast<double>(total);
  }
  return loads;
}

void print_link_loads(std::ostream& os, const std::vector<LinkLoad>& loads,
                      const MeshGeometry& geom) {
  os << "link(from->dir)   phits     share\n";
  for (const auto& ld : loads) {
    const auto c = geom.coord_of(ld.link.from);
    os << 'r' << std::setw(2) << ld.link.from << '(' << c.x << ',' << c.y
       << ")->" << to_string(ld.link.dir) << "  " << std::setw(9) << ld.phits
       << "  " << std::fixed << std::setprecision(4) << ld.share * 100.0
       << "%\n";
  }
}

void print_network_report(std::ostream& os, Network& net) {
  const auto& geom = net.geometry();
  os << "=== network report @ cycle " << net.now() << " ===\n";

  os << "\nper-router pipeline activity:\n"
     << "router  switched     rc  rc_unrt     va  va_novc  sa_noslot "
        "sa_nocred  arb_loss  in_occ  out_occ\n";
  Router::Stats total{};
  for (RouterId r = 0; r < geom.num_routers(); ++r) {
    const Router& router = net.router(r);
    const auto& s = router.stats();
    os << std::setw(6) << r << std::setw(10) << s.flits_switched
       << std::setw(7) << s.rc_computations << std::setw(9)
       << s.rc_stalls_unroutable << std::setw(7) << s.va_grants
       << std::setw(9) << s.va_stalls_no_free_vc << std::setw(11)
       << s.sa_stalls_no_slot << std::setw(10) << s.sa_stalls_no_credit
       << std::setw(10) << s.sa_arbitration_losses() << std::setw(8)
       << router.input_occupancy() << std::setw(9)
       << router.output_occupancy() << '\n';
    total.flits_switched += s.flits_switched;
    total.rc_computations += s.rc_computations;
    total.rc_stalls_unroutable += s.rc_stalls_unroutable;
    total.va_grants += s.va_grants;
    total.va_stalls_no_free_vc += s.va_stalls_no_free_vc;
    total.sa_requests += s.sa_requests;
    total.sa_stalls_no_slot += s.sa_stalls_no_slot;
    total.sa_stalls_no_credit += s.sa_stalls_no_credit;
  }
  os << " total" << std::setw(10) << total.flits_switched << std::setw(7)
     << total.rc_computations << std::setw(9) << total.rc_stalls_unroutable
     << std::setw(7) << total.va_grants << std::setw(9)
     << total.va_stalls_no_free_vc << std::setw(11) << total.sa_stalls_no_slot
     << std::setw(10) << total.sa_stalls_no_credit << std::setw(10)
     << total.sa_arbitration_losses() << '\n';

  os << "\nlink totals:\n";
  std::uint64_t phits = 0;
  std::uint64_t faulted = 0;
  std::uint64_t acks = 0;
  std::uint64_t nacks = 0;
  for (const LinkRef& l : net.all_links()) {
    const auto& ls = net.link(l.from, l.dir).stats();
    phits += ls.phits_sent;
    faulted += ls.phits_with_injected_faults;
    acks += ls.acks_sent;
    nacks += ls.nacks_sent;
  }
  os << "  mesh phits " << phits << ", faulted " << faulted << ", acks "
     << acks << ", nacks " << nacks << '\n';

  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejects = 0;
  std::uint64_t corrected = 0;
  std::uint64_t sdc = 0;
  for (NodeId c = 0; c < geom.num_cores(); ++c) {
    const auto& ns = net.ni(c).stats();
    injected += ns.packets_injected;
    delivered += ns.packets_delivered;
    rejects += ns.inject_rejects;
  }
  for (RouterId r = 0; r < geom.num_routers(); ++r) {
    for (int p = 0; p < net.router(r).num_ports(); ++p) {
      const auto& is = net.router(r).input(p).stats();
      corrected += is.corrected_singles;
      sdc += is.silent_corruptions;
    }
  }
  os << "  NI packets: " << injected << " injected, " << delivered
     << " delivered, " << rejects << " rejected\n";
  os << "  ECC: " << corrected << " inline corrections, " << sdc
     << " silent corruptions\n";
  const auto& purges = net.purge_totals();
  os << "  purges: " << purges.packets << " packets, " << purges.flits
     << " flits removed\n";
}

double LatencyStats::percentile(double q) const {
  // Defined edge cases: no samples -> 0 (nothing observed); q at or below 0
  // -> the observed minimum; q at or past 1 -> the observed maximum; one
  // sample -> that sample (min_ == max_). NaN is treated as q = 0.
  if (count_ == 0) return 0.0;
  if (!(q > 0.0)) return static_cast<double>(min_);
  if (q >= 1.0 || count_ == 1) return static_cast<double>(max_);
  // Rank of the requested quantile, 1-based (nearest-rank definition).
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t cum = 0;
  Cycle lo = 0;
  Cycle hi = 8;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = hist_[b];
    if (in_bucket > 0 && rank <= static_cast<double>(cum + in_bucket)) {
      // The open last bucket and the extremes are clamped to observed data.
      const double bucket_lo =
          std::max(static_cast<double>(lo), static_cast<double>(min_));
      const double bucket_hi =
          b + 1 == kBuckets
              ? static_cast<double>(max_)
              : std::min(static_cast<double>(hi), static_cast<double>(max_));
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return bucket_lo + frac * std::max(0.0, bucket_hi - bucket_lo);
    }
    cum += in_bucket;
    lo = hi;
    hi *= 2;
  }
  return static_cast<double>(max_);
}

void LatencyStats::print(std::ostream& os, const std::string& label) const {
  os << label << ": n=" << count_ << " mean=" << std::fixed
     << std::setprecision(2) << mean() << " min=" << min_ << " max=" << max_
     << " p50=" << std::setprecision(1) << p50() << " p95=" << p95()
     << " p99=" << p99() << "\n  histogram(cycles):";
  Cycle bound = 8;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    os << " <" << bound << ":" << hist_[b];
    bound *= 2;
  }
  os << '\n';
}

}  // namespace htnoc::stats
