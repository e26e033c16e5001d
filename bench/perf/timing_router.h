// Timing decorator for the traced benchmark run. It wraps a router built
// by a built-in ProtocolRegistry factory and sits on the same two seams
// dtn::CustodyRouter uses:
//
//  - MAC listener: registered after the inner router, so every MAC->router
//    call (receptions and link failures) passes through it first;
//  - router observer: set_observer() chains it between the router and the
//    gossip agent (or whatever observer sits above), so every router->gossip
//    call passes through it.
//
// Every harness/app/gossip->router call is timed too. Each call is forwarded
// unchanged: the decorator draws no random numbers, schedules no events and
// sends nothing, so a traced run executes exactly the untraced run's events.
// Time is charged as *self* time: entering a seam pauses the enclosing one,
// so a router receive that calls up into gossip, which calls back down into
// the router, charges each layer only for its own stretch.
#ifndef AG_BENCH_PERF_TIMING_ROUTER_H
#define AG_BENCH_PERF_TIMING_ROUTER_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "gossip/routing_adapter.h"
#include "harness/multicast_router.h"
#include "mac/csma_mac.h"
#include "net/packet.h"

namespace ag::perf {

// Router families the traced run splits time by. maodv covers its AODV
// base (unicast routing lives in the same object).
enum class Family : std::uint8_t { maodv = 0, odmrp, flood };
inline constexpr std::size_t kFamilyCount = 3;

// Seams: per family a receive slot (MAC->router) and a service slot
// (harness/app/gossip->router), plus one gossip slot (router->gossip).
inline constexpr std::size_t rx_slot(Family f) { return 2 * static_cast<std::size_t>(f); }
inline constexpr std::size_t svc_slot(Family f) { return 2 * static_cast<std::size_t>(f) + 1; }
inline constexpr std::size_t kGossipSlot = 2 * kFamilyCount;
inline constexpr std::size_t kSlotCount = kGossipSlot + 1;
inline constexpr std::size_t kPayloadKinds = std::variant_size_v<net::Payload>;

// Self-time ledger for the seams. Single-threaded: the benchmark runs one
// cell at a time on one thread.
class SeamClock {
 public:
  // ag-lint: allow(determinism, wall-clock times the seams from outside the simulation)
  using Clock = std::chrono::steady_clock;

  void enter(std::size_t slot) {
    // ag-lint: allow(determinism, wall-clock times the seams from outside the simulation)
    const Clock::time_point now = Clock::now();
    if (!stack_.empty()) self_ns_[stack_.back()] += (now - last_).count();
    stack_.push_back(slot);
    ++calls_[slot];
    last_ = now;
  }
  void leave() {
    // ag-lint: allow(determinism, wall-clock times the seams from outside the simulation)
    const Clock::time_point now = Clock::now();
    self_ns_[stack_.back()] += (now - last_).count();
    stack_.pop_back();
    last_ = now;
  }
  void count_rx(std::size_t kind) { ++rx_kind_[kind]; }

  [[nodiscard]] double self_s(std::size_t slot) const {
    return static_cast<double>(self_ns_[slot]) * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls(std::size_t slot) const { return calls_[slot]; }
  [[nodiscard]] std::uint64_t rx_kind(std::size_t kind) const { return rx_kind_[kind]; }

 private:
  std::array<std::int64_t, kSlotCount> self_ns_{};
  std::array<std::uint64_t, kSlotCount> calls_{};
  std::array<std::uint64_t, kPayloadKinds> rx_kind_{};
  std::vector<std::size_t> stack_;
  Clock::time_point last_{};
};

class Scope {
 public:
  Scope(SeamClock& clock, std::size_t slot) : clock_{clock} { clock_.enter(slot); }
  ~Scope() { clock_.leave(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SeamClock& clock_;
};

class TimingRouter final : public harness::MulticastRouter,
                           public mac::MacListener,
                           public gossip::RouterObserver {
 public:
  TimingRouter(mac::CsmaMac& mac, std::unique_ptr<harness::MulticastRouter> inner,
               Family family, SeamClock& clock)
      : inner_{std::move(inner)},
        inner_listener_{dynamic_cast<mac::MacListener*>(inner_.get())},
        clock_{clock},
        rx_{rx_slot(family)},
        svc_{svc_slot(family)} {
    // The inner router registered itself with the MAC in its constructor.
    mac.set_listener(this);
  }

  // --- harness::MulticastRouter ---
  void start() override {
    Scope s{clock_, svc_};
    inner_->start();
  }
  void reset() override {
    Scope s{clock_, svc_};
    inner_->reset();
  }
  void set_observer(gossip::RouterObserver* observer) override {
    observer_ = observer;
    inner_->set_observer(this);
  }
  void join_group(net::GroupId group) override {
    Scope s{clock_, svc_};
    inner_->join_group(group);
  }
  void leave_group(net::GroupId group) override {
    Scope s{clock_, svc_};
    inner_->leave_group(group);
  }
  std::uint32_t send_multicast(net::GroupId group, std::uint16_t payload_bytes) override {
    Scope s{clock_, svc_};
    return inner_->send_multicast(group, payload_bytes);
  }
  void add_totals(stats::NetworkTotals& totals) const override { inner_->add_totals(totals); }

  // --- gossip::RoutingAdapter ---
  [[nodiscard]] net::NodeId self() const override { return inner_->self(); }
  [[nodiscard]] bool is_member(net::GroupId group) const override {
    Scope s{clock_, svc_};
    return inner_->is_member(group);
  }
  [[nodiscard]] bool on_tree(net::GroupId group) const override {
    Scope s{clock_, svc_};
    return inner_->on_tree(group);
  }
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(net::GroupId group) const override {
    Scope s{clock_, svc_};
    return inner_->tree_neighbors(group);
  }
  void unicast(net::NodeId dest, net::Payload payload) override {
    Scope s{clock_, svc_};
    inner_->unicast(dest, std::move(payload));
  }
  void send_to_neighbor(net::NodeId neighbor, net::Payload payload) override {
    Scope s{clock_, svc_};
    inner_->send_to_neighbor(neighbor, std::move(payload));
  }
  void route_hint(net::NodeId dest, net::NodeId via_neighbor, std::uint8_t hops) override {
    Scope s{clock_, svc_};
    inner_->route_hint(dest, via_neighbor, hops);
  }
  [[nodiscard]] std::uint8_t route_hops(net::NodeId dest) const override {
    Scope s{clock_, svc_};
    return inner_->route_hops(dest);
  }

  // --- mac::MacListener ---
  void on_packet_received(const net::Packet& packet, net::NodeId from) override {
    clock_.count_rx(packet.payload.index());
    Scope s{clock_, rx_};
    if (inner_listener_ != nullptr) inner_listener_->on_packet_received(packet, from);
  }
  void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) override {
    Scope s{clock_, rx_};
    if (inner_listener_ != nullptr) inner_listener_->on_unicast_failed(packet, next_hop);
  }

  // --- gossip::RouterObserver ---
  void on_multicast_data(const net::MulticastData& data, net::NodeId from) override {
    if (observer_ == nullptr) return;
    Scope s{clock_, kGossipSlot};
    observer_->on_multicast_data(data, from);
  }
  void on_tree_neighbor_added(net::GroupId group, net::NodeId neighbor,
                              std::uint16_t member_distance_hint) override {
    if (observer_ == nullptr) return;
    Scope s{clock_, kGossipSlot};
    observer_->on_tree_neighbor_added(group, neighbor, member_distance_hint);
  }
  void on_tree_neighbor_removed(net::GroupId group, net::NodeId neighbor) override {
    if (observer_ == nullptr) return;
    Scope s{clock_, kGossipSlot};
    observer_->on_tree_neighbor_removed(group, neighbor);
  }
  void on_self_membership_changed(net::GroupId group, bool member) override {
    if (observer_ == nullptr) return;
    Scope s{clock_, kGossipSlot};
    observer_->on_self_membership_changed(group, member);
  }
  void on_member_learned(net::GroupId group, net::NodeId member, std::uint8_t hops) override {
    if (observer_ == nullptr) return;
    Scope s{clock_, kGossipSlot};
    observer_->on_member_learned(group, member, hops);
  }
  void on_gossip_packet(const net::Packet& packet, net::NodeId from) override {
    if (observer_ == nullptr) return;
    Scope s{clock_, kGossipSlot};
    observer_->on_gossip_packet(packet, from);
  }

 private:
  std::unique_ptr<harness::MulticastRouter> inner_;
  mac::MacListener* inner_listener_;
  SeamClock& clock_;
  std::size_t rx_;
  std::size_t svc_;
  gossip::RouterObserver* observer_{nullptr};
};

}  // namespace ag::perf

#endif  // AG_BENCH_PERF_TIMING_ROUTER_H
