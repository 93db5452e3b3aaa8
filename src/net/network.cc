/**
 * @file
 * Sharded-mode fabric paths (serial routing stays header-inline in
 * network.hh; see DESIGN.md §11 for the partitioning protocol).
 *
 * In sharded mode the switch is the inter-shard boundary: route()
 * stamps each message with a per-(src,dst) sequence number and posts
 * it — through sim::ShardedSim's deterministic staging — to the
 * destination node's home shard, due one wire latency later. All
 * stochastic judging (loss, fault verdicts, congestion admission)
 * happens at the destination drain with order-free keyed randomness,
 * so the outcome for a given transfer depends only on (seed, src,
 * dst, seq) — never on which shard ran first or how machines were
 * partitioned.
 */

#include "network.hh"

#include "sim/shard.hh"

namespace lynx::net {

Network::Network(sim::ShardedSim &ss, NetworkConfig cfg)
    : sim_(ss.shard(0)), cfg_(cfg), lossRng_(cfg.lossSeed), ss_(&ss),
      cRouted_(&stats_.counter("routed")),
      cDroppedInFabric_(&stats_.counter("dropped_in_fabric")),
      cDroppedByFault_(&stats_.counter("dropped_by_fault")),
      cCorruptedInFabric_(&stats_.counter("corrupted_in_fabric")),
      cEcnMarked_(&ecnStats_.counter("marked")),
      cEgressDrops_(&ecnStats_.counter("egress_drops")),
      cCnpSent_(&ecnStats_.counter("cnp_sent")),
      hQueueBytes_(&ecnStats_.histogram("queue_bytes"))
{
    // The base stats_/ecnStats_ stay unregistered: every shard gets
    // its own "net.fabric"/"net.ecn" set in its own registry, so a
    // merged snapshot sums them under one clean path instead of
    // growing "#2"-suffixed duplicates.
    shardStats_.reserve(ss.shards());
    for (unsigned s = 0; s < ss.shards(); ++s) {
        auto st = std::make_unique<ShardNetStats>();
        st->routed = &st->fabric.counter("routed");
        st->droppedInFabric = &st->fabric.counter("dropped_in_fabric");
        st->droppedByFault = &st->fabric.counter("dropped_by_fault");
        st->partitionDrops = &st->fabric.counter("partition_drops");
        st->corruptedInFabric = &st->fabric.counter("corrupted_in_fabric");
        st->ecnMarked = &st->ecn.counter("marked");
        st->egressDrops = &st->ecn.counter("egress_drops");
        st->cnpSent = &st->ecn.counter("cnp_sent");
        st->queueBytes = &st->ecn.histogram("queue_bytes");
        ss.shard(s).metrics().add("net.fabric", st->fabric);
        ss.shard(s).metrics().add("net.ecn", st->ecn);
        shardStats_.push_back(std::move(st));
    }
    // Every cross-shard record rides the wire (switch + propagation)
    // — except CNPs, which ride the shorter control-path delay.
    ss.constrainLookahead(cfg_.switchLatency + cfg_.propagation);
    if (cfg_.congestion.enabled && cfg_.congestion.dcqcnEnabled)
        ss.constrainLookahead(cfg_.congestion.cnpDelay);
}

Network::~Network()
{
    if (ss_) {
        for (unsigned s = 0; s < shardStats_.size(); ++s) {
            ss_->shard(s).metrics().remove(shardStats_[s]->fabric);
            ss_->shard(s).metrics().remove(shardStats_[s]->ecn);
        }
        return;
    }
    sim_.metrics().remove(stats_);
    sim_.metrics().remove(ecnStats_);
}

Nic &
Network::addNicSharded(const std::string &name, NicConfig cfg)
{
    const int s = sim::ShardedSim::currentShard();
    LYNX_ASSERT(s >= 0 && static_cast<unsigned>(s) < ss_->shards(),
                "addNic in sharded mode requires an active "
                "ShardedSim::Scope (to home the node)");
    auto node = static_cast<std::uint32_t>(nics_.size());
    nics_.push_back(std::make_unique<Nic>(
        ss_->shard(static_cast<unsigned>(s)), *this, name, node, cfg));
    shardOf_.push_back(static_cast<unsigned>(s));
    // Topology construction is single-threaded and pre-run, so
    // resizing the seq matrix (and the port table) here is safe; at
    // run time both have fixed addresses.
    pairSeq_.assign(nics_.size() * nics_.size(), 0);
    if (cfg_.congestion.enabled) {
        ports_.resize(nics_.size());
        makePort(node);
    }
    return *nics_.back();
}

void
Network::routeSharded(Message m)
{
    const std::uint32_t src = m.src.node;
    const std::uint32_t dst = m.dst.node;
    const unsigned srcShard = shardOf_[src];
    LYNX_DEBUG_ASSERT(sim::ShardedSim::currentShard() ==
                          static_cast<int>(srcShard),
                      "route() off the sender's home shard");
    sim::Simulator &ssim = ss_->shard(srcShard);
    const sim::Tick drainAt =
        ssim.now() + cfg_.switchLatency + cfg_.propagation;
    const std::uint64_t seq = nextPairSeq(src, dst);
    // Same-shard destinations take the identical staged path: the
    // arrival order at the destination tick must not depend on how
    // nodes were partitioned.
    ss_->post(shardOf_[dst], drainAt, src, dst, seq,
              [this, seq, m = std::move(m)]() mutable {
                  stagedArrival(std::move(m), seq);
              });
}

void
Network::stagedArrival(Message m, std::uint64_t pairSeq)
{
    const std::uint32_t src = m.src.node;
    const std::uint32_t dst = m.dst.node;
    const unsigned ds = shardOf_[dst];
    ShardNetStats &st = *shardStats_[ds];
    sim::Simulator &dsim = ss_->shard(ds);
    const sim::Tick now = dsim.now();
    // The serial path judges at send time; reconstruct it so keyed
    // verdicts (partition windows especially) see the same clock.
    const sim::Tick sendNow = now - cfg_.switchLatency - cfg_.propagation;
    if (cfg_.lossRate > 0.0 &&
        sim::KeyedRng(cfg_.lossSeed, src, dst, pairSeq)
            .chance(cfg_.lossRate)) {
        st.droppedInFabric->add();
        return;
    }
    Nic &dstNic = *nics_[dst];
    const sim::Tick hw = dstNic.config().hwLatency;
    sim::Tick faultDelay = 0;
    if (faults_ && faults_->enabled()) {
        auto v = faults_->judgeKeyed(src, dst, sendNow, pairSeq);
        if (v.drop) {
            (v.partition ? st.partitionDrops : st.droppedByFault)->add();
            return;
        }
        if (v.corrupt) {
            faults_->corruptKeyed(m.payload,
                                  (static_cast<std::uint64_t>(src) << 48) ^
                                      (static_cast<std::uint64_t>(dst)
                                       << 32) ^
                                      pairSeq);
            m.corrupted = true;
            st.corruptedInFabric->add();
        }
        faultDelay = v.delay;
    }
    sim::Tick deliverAt;
    if (cfg_.congestion.enabled) {
        // Admission replays the serial model's arrival time (send +
        // switch latency). Drains hit each port in due-tick order
        // with per-tick (src, dst, seq) tie-breaks, so the port's
        // internal marking Rng needs no keying: its draw order is
        // already partition-invariant.
        CongestionPoint &port = egressPort(dst);
        const sim::Tick arrival = now - cfg_.propagation;
        CongestionPoint::Verdict v = port.admit(m.size(), arrival);
        st.queueBytes->record(v.depthBytes);
        if (v.dropped) {
            st.egressDrops->add();
            return;
        }
        if (v.marked) {
            m.ce = true;
            st.ecnMarked->add();
        }
        deliverAt = v.start + port.serialization(m.size()) +
                    cfg_.propagation + hw + faultDelay;
    } else {
        deliverAt = now + hw + faultDelay;
    }
    st.routed->add();
    dsim.schedule(deliverAt, [&dstNic, m = std::move(m)]() mutable {
        dstNic.deliver(std::move(m));
    });
}

void
Network::sendCnpSharded(std::uint32_t congestedNode, std::uint32_t flowSrc)
{
    const unsigned cs = shardOf_[congestedNode];
    LYNX_DEBUG_ASSERT(sim::ShardedSim::currentShard() ==
                          static_cast<int>(cs),
                      "sendCnp() off the congested node's home shard");
    shardStats_[cs]->cnpSent->add();
    sim::Simulator &csim = ss_->shard(cs);
    const sim::Tick due = csim.now() + cfg_.congestion.cnpDelay;
    Nic &srcNic = *nics_[flowSrc];
    // Shares the (congestedNode, flowSrc) seq cell with data records,
    // so a CNP and a reverse-direction message due the same tick can
    // never collide on a staging key.
    ss_->post(shardOf_[flowSrc], due, congestedNode, flowSrc,
              nextPairSeq(congestedNode, flowSrc),
              [&srcNic, congestedNode] { srcNic.handleCnp(congestedNode); });
}

} // namespace lynx::net
