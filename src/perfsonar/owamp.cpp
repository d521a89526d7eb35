#include "perfsonar/owamp.hpp"

#include <algorithm>

namespace scidmz::perfsonar {
namespace {

OwampReport makeReport(std::uint64_t due, std::uint64_t arrived,
                       const sim::RunningStats& delays) {
  OwampReport r;
  r.sent = due;
  r.received = std::min(arrived, due);
  r.lossFraction =
      due == 0 ? 0.0 : static_cast<double>(due - r.received) / static_cast<double>(due);
  r.minDelay = sim::Duration::fromSeconds(delays.count() ? delays.min() : 0.0);
  r.meanDelay = sim::Duration::fromSeconds(delays.mean());
  r.maxDelay = sim::Duration::fromSeconds(delays.count() ? delays.max() : 0.0);
  return r;
}

}  // namespace

OwampStream::OwampStream(net::Host& src, net::Host& dst, Options options)
    : src_(src), dst_(dst), options_(options), receiver_(dst), stream_id_(src.ctx().nextStreamId()) {
  receiver_.stream_id_ = stream_id_;
  dst_.bind(net::Protocol::kUdp, options_.port, receiver_);
}

OwampStream::~OwampStream() {
  stop();
  dst_.unbind(net::Protocol::kUdp, options_.port);
}

void OwampStream::start() {
  if (running_) return;
  running_ = true;
  auto& tracer = src_.ctx().extension<telemetry::Tracer>();
  if (tracer.enabled()) {
    tracer_ = &tracer;
    span_ = tracer_->begin(src_.ctx().now(), "owamp " + src_.name() + "->" + dst_.name(),
                           "perfsonar.owamp");
    tracer_->setCorrelationKey(span_, src_.address().value(), dst_.address().value());
  }
  sendProbe();
}

void OwampStream::stop() {
  running_ = false;
  if (timer_.valid()) {
    src_.ctx().sim().cancel(timer_);
    timer_ = sim::EventId{};
  }
  if (tracer_ != nullptr && span_.valid()) {
    tracer_->annotate(span_, "probes_sent", static_cast<std::uint64_t>(sent_times_.size()));
    tracer_->end(span_, src_.ctx().now());
    span_ = telemetry::SpanId{};
  }
}

void OwampStream::sendProbe() {
  if (!running_) return;
  net::ProbeHeader header;
  header.streamId = stream_id_;
  header.seqNo = sent_times_.size();
  header.sentAt = src_.ctx().now();
  net::FlowKey flow{src_.address(), dst_.address(), static_cast<std::uint16_t>(8760),
                    options_.port, net::Protocol::kUdp};
  src_.send(net::makeProbePacket(src_.ctx().pool(), flow, header, options_.probeSize));
  sent_times_.push_back(src_.ctx().now());
  timer_ = src_.ctx().sim().schedule(options_.interval, [this] {
    timer_ = sim::EventId{};
    sendProbe();
  });
}

void OwampStream::Receiver::onPacket(const net::Packet& packet) {
  if (!packet.isProbe()) return;
  const auto& probe = packet.probe();
  if (probe.streamId != stream_id_) return;
  if (probe.seqNo >= got_.size()) got_.resize(probe.seqNo + 1, false);
  got_[probe.seqNo] = true;
  const auto delay = host_.ctx().now() - probe.sentAt;
  delaySeconds_.add(delay.toSeconds());
}

OwampStream::HorizonCounts OwampStream::countsAtHorizon(sim::SimTime now) const {
  const auto cutoff = now - options_.lossTimeout;
  HorizonCounts counts;
  for (std::size_t i = 0; i < sent_times_.size(); ++i) {
    if (sent_times_[i] > cutoff) break;  // sent_times_ is monotonic
    ++counts.due;
    if (i < receiver_.got_.size() && receiver_.got_[i]) ++counts.arrived;
  }
  return counts;
}

OwampReport OwampStream::report() const {
  const auto counts = countsAtHorizon(src_.ctx().now());
  return makeReport(counts.due, counts.arrived, receiver_.delaySeconds_);
}

OwampReport OwampStream::intervalReport() {
  const auto counts = countsAtHorizon(src_.ctx().now());
  const auto dueDelta = counts.due - last_snapshot_.due;
  const auto arrivedDelta = counts.arrived - last_snapshot_.arrived;
  last_snapshot_ = counts;
  return makeReport(dueDelta, arrivedDelta, receiver_.delaySeconds_);
}

}  // namespace scidmz::perfsonar
