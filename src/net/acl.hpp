// Router/switch access control lists.
//
// The paper's security pattern replaces firewall appliances with ACLs
// evaluated in the forwarding plane: filtering by address and port at line
// rate, with no buffering stage to overflow. AclTable is that capability.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"

namespace scidmz::net {

enum class AclAction : std::uint8_t { kPermit, kDeny };

struct PortRange {
  std::uint16_t lo = 0;
  std::uint16_t hi = 65535;
  [[nodiscard]] constexpr bool contains(std::uint16_t p) const { return p >= lo && p <= hi; }
  static constexpr PortRange any() { return PortRange{}; }
  static constexpr PortRange single(std::uint16_t p) { return PortRange{p, p}; }
};

/// One match-action rule. Unset protocol matches both TCP and UDP.
struct AclRule {
  AclAction action = AclAction::kPermit;
  Prefix src{Address{0}, 0};
  Prefix dst{Address{0}, 0};
  std::optional<Protocol> proto;
  PortRange srcPorts = PortRange::any();
  PortRange dstPorts = PortRange::any();
  std::string comment;

  [[nodiscard]] bool matches(const Packet& p) const {
    if (proto && *proto != p.flow.proto) return false;
    return src.contains(p.flow.src) && dst.contains(p.flow.dst) &&
           srcPorts.contains(p.flow.srcPort) && dstPorts.contains(p.flow.dstPort);
  }
};

/// First-match rule list with a configurable default action. Science DMZ
/// practice: explicit permits for DTN data channels and measurement hosts,
/// default deny.
class AclTable {
 public:
  AclTable() = default;
  explicit AclTable(AclAction defaultAction) : default_(defaultAction) {}

  void append(AclRule rule) { rules_.push_back(std::move(rule)); }
  void clear() { rules_.clear(); }
  [[nodiscard]] AclAction defaultAction() const { return default_; }
  [[nodiscard]] const std::vector<AclRule>& rules() const { return rules_; }

  [[nodiscard]] bool permits(const Packet& p) const {
    for (const auto& rule : rules_) {
      if (rule.matches(p)) return rule.action == AclAction::kPermit;
    }
    return default_ == AclAction::kPermit;
  }

 private:
  std::vector<AclRule> rules_;
  AclAction default_ = AclAction::kPermit;
};

}  // namespace scidmz::net
