// OSCARS-style virtual circuit reservation service (Section 7.1): a
// bandwidth calendar with admission control over the topology's links.
//
// A reservation claims `bandwidth` on every link of the routed path for
// [start, end). Admission fails if any link's reservable capacity would be
// oversubscribed during any overlapping instant. The invariant the tests
// pin down: for every link and time, the sum of admitted reservations
// never exceeds the link's reservable capacity.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hpp"

namespace scidmz::vc {

struct ReservationId {
  std::uint64_t value = 0;
  [[nodiscard]] constexpr bool valid() const { return value != 0; }
  constexpr auto operator<=>(const ReservationId&) const = default;
};

struct Reservation {
  ReservationId id;
  net::Address src;
  net::Address dst;
  sim::DataRate bandwidth;
  sim::SimTime start;
  sim::SimTime end;
  std::vector<net::Link*> path;
};

class OscarsService {
 public:
  explicit OscarsService(net::Topology& topology, double reservableFraction = 1.0)
      : topology_(topology), reservable_fraction_(reservableFraction) {}

  /// Request a circuit. Returns the reservation id on success, nullopt if
  /// no route exists or any link lacks capacity in the window.
  std::optional<ReservationId> reserve(net::Address src, net::Address dst,
                                       sim::DataRate bandwidth, sim::SimTime start,
                                       sim::SimTime end);

  /// Release a reservation (idempotent).
  void release(ReservationId id);

  [[nodiscard]] const Reservation* find(ReservationId id) const;
  [[nodiscard]] bool activeAt(ReservationId id, sim::SimTime at) const;

  /// Total bandwidth reserved on `link` at instant `at`.
  [[nodiscard]] sim::DataRate reservedOn(const net::Link& link, sim::SimTime at) const;

  /// Remaining reservable bandwidth on `link` at instant `at`.
  [[nodiscard]] sim::DataRate availableOn(const net::Link& link, sim::SimTime at) const;

 private:
  [[nodiscard]] sim::DataRate reservableCapacity(const net::Link& link) const;

  net::Topology& topology_;
  double reservable_fraction_;
  std::map<std::uint64_t, Reservation> reservations_;
  std::uint64_t next_id_ = 0;
};

}  // namespace scidmz::vc
