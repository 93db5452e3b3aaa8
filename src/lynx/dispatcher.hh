/**
 * @file
 * The Message Dispatcher (paper Fig. 4): routes messages received by
 * the SNIC network server into server-mqueue RX rings "according to
 * the dispatching policy, e.g. load balancing for stateless services,
 * or steering messages to specific queues for stateful ones" (§4.2).
 *
 * The dispatcher stages messages per target mqueue and hands them to
 * SnicMqueue::rxPushBatch() in groups, so back-to-back arrivals for
 * the same queue share one coalesced RDMA write and one doorbell. A
 * staged batch is flushed either when it reaches `maxBatch` or when
 * the caller observes the ingress going idle (Runtime::listenLoop
 * flushes when the endpoint backlog drains), so batching never adds
 * latency to an isolated message. `maxBatch` 1 is the same code: every
 * message is a batch of one, flushed at once.
 */

#ifndef LYNX_LYNX_DISPATCHER_HH
#define LYNX_LYNX_DISPATCHER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/message.hh"
#include "net/steering.hh"
#include "sim/co.hh"
#include "sim/processor.hh"
#include "sim/stats.hh"

namespace lynx::core {

/** Queue-selection policy of one service. */
enum class DispatchPolicy
{
    /** Rotate across mqueues (stateless load balancing). */
    RoundRobin,

    /** Steer by client address hash (stateful services: one client
     *  always lands on the same mqueue). */
    SourceHash,

    /** Toeplitz-hash RSS over the (src, dst, ports) flow tuple
     *  through an indirection table (net/steering.hh) — the steering
     *  decision commodity NIC hardware makes, so per-flow affinity
     *  here matches what a real deployment would see. */
    Rss,
};

/** Dispatch-plane admission control (the untenanted path; tenants
 *  carry their own SLA caps in the TenantTable). */
struct AdmissionConfig
{
    /** Master switch. Off (default): the seed path, bit-identical —
     *  overload is absorbed by ring overflow / PFC alone. */
    bool enabled = false;

    /** Shed an arrival when in-flight ring tags across the service's
     *  usable mqueues have reached this fraction of their total tag
     *  capacity. Sheds are counted (`admission.<svc>.shed_ring_full`
     *  plus `tenant.table.untenanted_rejected` when a TenantTable
     *  exists) — never silent. */
    double shedOccupancy = 0.9;
};

/** Dispatcher behaviour switches. */
struct DispatcherConfig
{
    /** CPU charged per dispatched message. */
    sim::Tick dispatchCpu = 0;

    /** Messages staged per mqueue before a batched RX push; 1 =
     *  every message is flushed at once as a batch of one. */
    int maxBatch = 1;

    /** Keep a copy of each request payload in its ClientRef while
     *  the request is in flight, so failover can re-queue the work
     *  of a dead mqueue to a surviving one. Off (default) = no copy,
     *  the seed's zero-retention behaviour. */
    bool retainPayloads = false;

    /** Tenant table (lynx/tenant.hh). Non-null virtualizes the
     *  dispatch path for messages with a tenant id: SLA admission,
     *  per-tenant class queues drained by weighted round-robin
     *  under the mqueue quota. Null (default) = the seed path,
     *  bit-identical timing; messages with tenant id 0 always take
     *  the seed path either way. */
    TenantTable *tenants = nullptr;

    /** RSS indirection-table shape for DispatchPolicy::Rss. */
    net::steer::RssConfig rss = {};

    /** Dispatch-plane admission control (untenanted path). */
    AdmissionConfig admission = {};
};

/** Dispatches one service's ingress traffic to its mqueues. */
class Dispatcher
{
  public:
    Dispatcher(std::string name, DispatchPolicy policy,
               DispatcherConfig cfg)
        : name_(std::move(name)), policy_(policy), cfg_(cfg),
          cDroppedOversized_(&stats_.counter("dropped_oversized")),
          cDroppedNoTag_(&stats_.counter("dropped_no_tag")),
          cDroppedRingFull_(&stats_.counter("dropped_ring_full")),
          cDroppedTransport_(&stats_.counter("dropped_transport")),
          cDroppedNoLive_(&stats_.counter("dropped_no_live_queue")),
          cDispatched_(&stats_.counter("dispatched")),
          cBatchFlushes_(&stats_.counter("batch_flushes")),
          cRequeued_(&stats_.counter("requeued")),
          cDroppedTenantReject_(
              &stats_.counter("dropped_tenant_reject")),
          rss_(cfg_.rss),
          cSteerPicks_(&steerStats_.counter("rss_picks")),
          cSteerFallbacks_(&steerStats_.counter("rss_fallbacks")),
          cAdmitted_(&admissionStats_.counter("admitted")),
          cShed_(&admissionStats_.counter("shed_ring_full"))
    {
        LYNX_ASSERT(cfg_.maxBatch >= 1, name_, ": maxBatch must be >= 1");
    }

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Register a server mqueue as a dispatch target. */
    void
    addQueue(SnicMqueue *mq)
    {
        LYNX_ASSERT(mq->kind() == MqueueKind::Server,
                    "dispatcher targets must be server mqueues");
        queues_.push_back(mq);
        dead_.push_back(0);
        staged_.emplace_back();
        staged_.back().reserve(static_cast<std::size_t>(cfg_.maxBatch));
    }

    /** @return registered queue count. */
    std::size_t queueCount() const { return queues_.size(); }

    /** @return queue @p qi (health monitor / test access). */
    SnicMqueue &queueAt(std::size_t qi) { return *queues_[qi]; }

    /** Exclude (or re-admit) queue @p qi from dispatch decisions.
     *  Set by the health monitor around failover; all-alive routing
     *  is bit-identical to the seed's. */
    void
    setQueueDead(std::size_t qi, bool dead)
    {
        dead_[qi] = dead ? 1 : 0;
    }

    /** @return whether @p qi is excluded from dispatch. */
    bool queueDead(std::size_t qi) const { return dead_[qi] != 0; }

    /**
     * Dispatch @p msg: pick an mqueue, allocate a response tag for
     * the client, push into the RX ring. Charges CPU on @p core.
     * Full rings / tag tables drop the message (UDP semantics).
     * The message is staged and flushed once `maxBatch` are staged;
     * callers must eventually flush() a partial batch (see
     * hasStaged()).
     */
    sim::Co<void>
    dispatch(sim::Core &core, net::Message msg)
    {
        LYNX_ASSERT(!queues_.empty(), name_, ": no mqueues registered");
        co_await core.exec(cfg_.dispatchCpu);
        if (cfg_.tenants && msg.tenant != 0) {
            // Virtualized path: admission + class queues + WRR. One
            // branch on a null pointer is all the untenanted world
            // pays for it.
            co_await dispatchTenant(core, std::move(msg));
            co_return;
        }
        if (cfg_.admission.enabled) {
            if (!admitUntenanted()) {
                // Shed at the dispatch plane instead of letting the
                // overload deepen the rings: counted here and, when
                // the runtime is tenant-aware, in the TenantTable's
                // reject ledger — the client sees a timeout, the
                // operator sees a number (never a silent loss).
                cShed_->add();
                if (cfg_.tenants)
                    cfg_.tenants->rejectedUntenanted();
                co_return;
            }
            cAdmitted_->add();
        }
        rssDst_ = msg.dst; // the flow tuple Rss hashes (see pick())
        std::size_t qi = pick(msg.src);
        if (qi == kNoQueue) {
            // Every mqueue is dead or transport-failed: the sentinel
            // drop keeps "no silent loss" — the request is reported,
            // not forgotten.
            cDroppedNoLive_->add();
            co_return;
        }
        SnicMqueue &mq = *queues_[qi];
        if (msg.size() > mq.layout().maxPayload()) {
            // Larger than a ring slot: drop like an oversized
            // datagram instead of corrupting the ring.
            cDroppedOversized_->add();
            co_return;
        }
        auto tag = mq.allocTag(clientOf(msg));
        if (!tag) {
            cDroppedNoTag_->add();
            co_return;
        }
        staged_[qi].push_back({std::move(msg.payload), *tag});
        ++stagedCount_;
        if (staged_[qi].size() >=
            static_cast<std::size_t>(cfg_.maxBatch))
            co_await flushQueue(core, qi);
    }

    /** @return whether staged messages await a flush(). */
    bool hasStaged() const { return stagedCount_ != 0; }

    /** @return whether some staged batch targets a queue deep enough
     *  in earlier in-flight requests (tags allocated beyond the
     *  staged ones) that lingering for more company is (nearly)
     *  free: the accelerator would not reach the staged message
     *  immediately anyway. The depth threshold scales with the batch
     *  size — deep batches are only worth waiting for behind a deep
     *  backlog. An idle queue returns false, so an isolated message
     *  is flushed without delay. */
    bool
    stagedBehindBusyRing() const
    {
        std::size_t minExcess =
            static_cast<std::size_t>(cfg_.maxBatch) / 4 + 1;
        for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
            if (!staged_[qi].empty() &&
                queues_[qi]->tagsInFlight() >=
                    staged_[qi].size() + minExcess)
                return true;
        }
        return false;
    }

    /** Push every staged batch out (idle-ingress flush point). */
    sim::Co<void>
    flush(sim::Core &core)
    {
        for (std::size_t qi = 0; qi < queues_.size(); ++qi)
            if (!staged_[qi].empty())
                co_await flushQueue(core, qi);
    }

    /**
     * Failover drain of queue @p qi (health monitor, after
     * setQueueDead): release every in-flight tag — staged and already
     * pushed — and re-queue the retained request payloads to
     * surviving mqueues. Requests without a retained payload (or with
     * no live queue left) are dropped and counted.
     * @return how many requests were successfully re-queued.
     */
    sim::Co<std::size_t>
    evacuate(sim::Core &core, std::size_t qi)
    {
        SnicMqueue &mq = *queues_[qi];
        std::size_t moved = 0;

        // Staged but never pushed: their payloads are at hand
        // regardless of the retention knob.
        std::vector<Staged> batch = std::move(staged_[qi]);
        staged_[qi].clear();
        stagedCount_ -= batch.size();
        for (Staged &s : batch) {
            auto c = mq.tryReleaseTag(s.tag);
            if (!c) {
                cDroppedTransport_->add();
                continue;
            }
            if (co_await redispatch(core, std::move(s.payload),
                                    std::move(*c)))
                ++moved;
        }

        // Pushed and unanswered: only re-queueable with retention.
        for (std::uint32_t tag : mq.allocatedTags()) {
            auto c = mq.tryReleaseTag(tag);
            if (!c)
                continue;
            if (c->payload.empty() && !cfg_.retainPayloads) {
                cDroppedTransport_->add();
                if (cfg_.tenants && c->tenant != 0)
                    cfg_.tenants->abandoned(c->tenant);
                continue;
            }
            net::Payload payload = c->payload;
            if (co_await redispatch(core, std::move(payload),
                                    std::move(*c)))
                ++moved;
        }
        cRequeued_->add(moved);
        co_return moved;
    }

    /**
     * Route one request (an evacuated in-flight one, or a push whose
     * transport just died) to a live, transport-healthy mqueue with
     * an immediate (unstaged) push.
     * @return whether some queue accepted it; false = dropped and
     * counted under dropped_no_live_queue.
     */
    sim::Co<bool>
    redispatch(sim::Core &core, net::Payload payload, ClientRef client)
    {
        for (std::size_t tries = queues_.size(); tries > 0; --tries) {
            std::size_t qi = pick(client.addr);
            if (qi == kNoQueue)
                break;
            SnicMqueue &mq = *queues_[qi];
            ClientRef c = client;
            if (cfg_.retainPayloads)
                c.payload = payload.toVector();
            auto tag = mq.allocTag(c);
            if (!tag)
                continue;
            if (co_await mq.rxPush(core, payload, *tag)) {
                cDispatched_->add();
                co_return true;
            }
            mq.tryReleaseTag(*tag);
            // That queue just failed too; the next iteration skips it
            // (transportDead) or gives up.
        }
        cDroppedNoLive_->add();
        if (cfg_.tenants && client.tenant != 0)
            cfg_.tenants->abandoned(client.tenant);
        co_return false;
    }

    sim::StatSet &stats() { return stats_; }

    /** RSS steering stats (`steer.<svc>`): picks and dead-home
     *  fallbacks. All zero unless the policy is Rss. */
    sim::StatSet &steerStats() { return steerStats_; }

    /** Admission stats (`admission.<svc>`): admitted vs shed. All
     *  zero unless AdmissionConfig::enabled. */
    sim::StatSet &admissionStats() { return admissionStats_; }

    /** @{ @name Tenant traffic classes (lynx/tenant.hh)
     *
     *  With a TenantTable configured, tenanted messages go through
     *  admission (SLA cap) into a per-tenant class queue; the pump
     *  places queued work onto the mqueues in smooth-WRR order,
     *  subject to each tenant's mqueue quota. The pump is
     *  work-conserving: any tenant with queued work and quota
     *  headroom keeps the rings busy, whatever the others do. */

    /** @return whether any class queue holds deferred work. */
    bool hasTenantPending() const { return tenantPendingTotal_ != 0; }

    /** @return total messages across all class queues. */
    std::size_t tenantPending() const { return tenantPendingTotal_; }

    /** Called (if set) whenever the dispatcher leaves work deferred
     *  in a class queue — the Runtime's drain task wakes on it. */
    void
    setTenantBacklogHook(std::function<void()> fn)
    {
        backlogHook_ = std::move(fn);
    }

    /**
     * Drain the class queues: repeatedly WRR-pick an eligible
     * tenant (non-empty class, below its mqueue quota), place its
     * oldest message. Stops when nothing is eligible, the tag table
     * fills, or a ring rejects the push (the message returns to its
     * class; freed capacity re-triggers via the backlog hook /
     * TenantTable capacity hooks). Several pumps may
     * run at once (one per listener core plus the Runtime's drain
     * task); each refunds only its own unserved turn and parks its
     * message back in arrival order, so pumps that fail on the same
     * full ring leave the state they would leave one after another.
     */
    sim::Co<void>
    pumpTenants(sim::Core &core)
    {
        if (!cfg_.tenants || tenantPendingTotal_ == 0)
            co_return;
        WrrPicker::Turn turn;
        for (;;) {
            std::size_t t = wrr_.pick(
                classes_.size(),
                [&](std::size_t i) -> std::int64_t {
                    if (classes_[i].empty())
                        return 0;
                    TenantId id = static_cast<TenantId>(i);
                    if (!cfg_.tenants->belowTagQuota(id))
                        return 0;
                    return cfg_.tenants->weight(id);
                },
                turn);
            if (t == WrrPicker::kNone)
                co_return;
            Pending p = std::move(classes_[t].front());
            classes_[t].pop_front();
            --tenantPendingTotal_;
            std::size_t qi = pick(p.client.addr);
            if (qi == kNoQueue) {
                cDroppedNoLive_->add();
                cfg_.tenants->abandoned(p.client.tenant);
                continue;
            }
            SnicMqueue &mq = *queues_[qi];
            auto tag = mq.allocTag(p.client);
            if (!tag) {
                // Tag table full: park until a release frees one.
                // The turn served nothing — refund it, or the retry
                // cadence aliases against the weight pattern and can
                // starve a class (WrrPicker::unpick).
                park(t, std::move(p));
                wrr_.unpick(turn);
                co_return;
            }
            if (co_await mq.rxPush(core, p.payload, *tag)) {
                cDispatched_->add();
                continue;
            }
            // redispatch() itself abandons the tenant's in-flight
            // slot on final failure.
            if (co_await rejected(core, mq, mq.transportDead(), *tag,
                                  p.payload))
                continue;
            // Ring genuinely full: park; consumption + tag release
            // will reopen capacity. Unserved turn — refund it (see
            // the allocTag park above).
            park(t, std::move(p));
            wrr_.unpick(turn);
            co_return;
        }
    }
    /** @} */

  private:
    struct Staged
    {
        net::Payload payload;
        std::uint32_t tag;
    };

    /** What one in-progress flush owns: the staged messages it took
     *  over and the views rxPushBatch() reads. */
    struct FlushBuf
    {
        std::vector<Staged> staged;
        std::vector<SnicMqueue::RxItem> items;
    };

    /** One admitted-but-not-yet-placed tenant request; `arrival`
     *  orders its class queue. */
    struct Pending
    {
        net::Payload payload;
        ClientRef client;
        std::uint64_t arrival = 0;
    };

    /** Return @p p, whose turn served nothing, to class @p t in
     *  arrival order: while its pump was suspended, another pump may
     *  have parked a later message of the same class first. */
    void
    park(std::size_t t, Pending p)
    {
        std::deque<Pending> &q = classes_[t];
        auto at = std::find_if(q.begin(), q.end(), [&](const Pending &o) {
            return o.arrival > p.arrival;
        });
        q.insert(at, std::move(p));
        ++tenantPendingTotal_;
    }

    sim::Co<void>
    dispatchTenant(sim::Core &core, net::Message msg)
    {
        if (msg.size() > queues_[0]->layout().maxPayload()) {
            cDroppedOversized_->add();
            co_return;
        }
        TenantId t = msg.tenant;
        if (!cfg_.tenants->admit(t)) {
            // Admission reject IS the SLA knob: an over-cap (or
            // retired/unknown) tenant's arrival is refused with a
            // counted drop reason, keeping "no silent loss".
            cDroppedTenantReject_->add();
            co_return;
        }
        if (classes_.size() < cfg_.tenants->idSpan())
            classes_.resize(cfg_.tenants->idSpan());
        Pending p{{}, clientOf(msg), tenantArrivals_++};
        p.payload = std::move(msg.payload);
        p.client.tenantGen = cfg_.tenants->generation(t);
        classes_[t].push_back(std::move(p));
        ++tenantPendingTotal_;
        co_await pumpTenants(core);
        if (tenantPendingTotal_ != 0 && backlogHook_)
            backlogHook_();
    }

    /** The client identity (and, with retention, the payload copy)
     *  an in-flight request of @p msg carries. */
    ClientRef
    clientOf(const net::Message &msg) const
    {
        ClientRef c;
        c.addr = msg.src;
        c.proto = msg.proto;
        c.seq = msg.seq;
        c.sentAt = msg.sentAt;
        c.traceId = msg.traceId;
        c.tenant = msg.tenant;
        if (cfg_.retainPayloads)
            c.payload = msg.payload.toVector();
        return c;
    }

    /**
     * A push of @p tag to @p mq was rejected: release the tag and, if
     * the push died on the wire (@p transportDead) rather than on a
     * full ring, route the request to a surviving queue right away.
     * @return whether the request was consumed (re-routed, or counted
     * as a transport drop); false = the ring was full, and the caller
     * drops or parks @p payload.
     */
    sim::Co<bool>
    rejected(sim::Core &core, SnicMqueue &mq, bool transportDead,
             std::uint32_t tag, net::Payload &payload)
    {
        auto c = mq.tryReleaseTag(tag);
        if (!transportDead || !c)
            co_return false;
        if (!co_await redispatch(core, std::move(payload), std::move(*c)))
            cDroppedTransport_->add();
        co_return true;
    }

    sim::Co<void>
    flushQueue(sim::Core &core, std::size_t qi)
    {
        // Take the batch over before any suspension so a concurrent
        // dispatch() stages into a fresh vector — a spare one, which
        // keeps its capacity, so a stream of one-message batches does
        // not reallocate per message.
        FlushBuf buf;
        if (!spare_.empty()) {
            buf = std::move(spare_.back());
            spare_.pop_back();
        }
        buf.staged.swap(staged_[qi]);
        stagedCount_ -= buf.staged.size();
        SnicMqueue &mq = *queues_[qi];
        for (const Staged &s : buf.staged)
            buf.items.push_back({s.payload, s.tag, 0});
        std::size_t accepted = co_await mq.rxPushBatch(core, buf.items);
        bool transport = mq.transportDead();
        for (std::size_t j = accepted; j < buf.staged.size(); ++j) {
            if (!co_await rejected(core, mq, transport, buf.staged[j].tag,
                                   buf.staged[j].payload))
                cDroppedRingFull_->add();
        }
        cDispatched_->add(accepted);
        cBatchFlushes_->add();
        buf.staged.clear();
        buf.items.clear();
        spare_.push_back(std::move(buf));
    }

    static constexpr std::size_t kNoQueue =
        static_cast<std::size_t>(-1);

    /** @return whether @p qi can take new work right now. */
    bool
    usable(std::size_t qi) const
    {
        return dead_[qi] == 0 && !queues_[qi]->transportDead();
    }

    /** @return the queue a request from @p src goes to under the
     *  service's policy, skipping unusable queues; kNoQueue if none is
     *  usable. All-alive picks are the seed policy: RoundRobin advances
     *  rr_ exactly once, SourceHash and Rss take their home queue.
     *  Rss hashes (@p src, rssDst_): dispatch() sets rssDst_ first,
     *  failover re-routing reuses the last one. */
    std::size_t
    pick(const net::Address &src)
    {
        switch (policy_) {
          case DispatchPolicy::RoundRobin:
            for (std::size_t i = 0; i < queues_.size(); ++i) {
                std::size_t qi = rr_++ % queues_.size();
                if (usable(qi))
                    return qi;
            }
            return kNoQueue;
          case DispatchPolicy::SourceHash: {
            std::uint64_t h = src.node * 0x9e3779b97f4a7c15ull +
                              src.port * 0x85ebca6bull;
            // Linear probe from the home queue: a client keeps its
            // queue while it is alive and lands on a stable fallback
            // while it is not.
            for (std::size_t i = 0; i < queues_.size(); ++i) {
                std::size_t qi = (h + i) % queues_.size();
                if (usable(qi))
                    return qi;
            }
            return kNoQueue;
          }
          case DispatchPolicy::Rss:
            return probeRss(src, rssDst_);
        }
        return kNoQueue;
    }

    /** RSS home queue + linear probe over usable queues. The hash is
     *  the real Toeplitz over the flow tuple (net/steering.hh), so a
     *  flow's mqueue matches what RSS hardware would pick; every
     *  steering decision is counted, fallbacks (home dead) too. */
    std::size_t
    probeRss(const net::Address &src, const net::Address &dst)
    {
        std::size_t home = rss_.pick(src, dst, queues_.size());
        for (std::size_t i = 0; i < queues_.size(); ++i) {
            std::size_t qi = (home + i) % queues_.size();
            if (!usable(qi))
                continue;
            cSteerPicks_->add();
            if (i != 0)
                cSteerFallbacks_->add();
            return qi;
        }
        return kNoQueue;
    }

    /** Occupancy gate of the untenanted admission path: sum in-flight
     *  ring tags over the usable mqueues against their tag capacity.
     *  Pure arithmetic — no suspension — so enabling admission under
     *  uncongested load perturbs no timestamps. */
    bool
    admitUntenanted() const
    {
        std::size_t used = 0;
        std::size_t cap = 0;
        for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
            if (!usable(qi))
                continue;
            used += queues_[qi]->tagsInFlight();
            cap += queues_[qi]->tagCapacity();
        }
        if (cap == 0)
            return false; // nothing usable: shed, counted
        return static_cast<double>(used) <
               cfg_.admission.shedOccupancy * static_cast<double>(cap);
    }

    std::string name_;
    DispatchPolicy policy_;
    DispatcherConfig cfg_;
    std::vector<SnicMqueue *> queues_;
    /** Failover exclusion flags (parallel to queues_). */
    std::vector<char> dead_;
    /** Per-queue staged batches (parallel to queues_). */
    std::vector<std::vector<Staged>> staged_;
    /** Buffers of finished flushes, reused by the next ones. */
    std::vector<FlushBuf> spare_;
    std::size_t stagedCount_ = 0;
    std::size_t rr_ = 0;

    /** Per-tenant class queues, indexed by tenant id (slot 0
     *  unused); sized lazily against the TenantTable's id span. */
    std::vector<std::deque<Pending>> classes_;
    std::size_t tenantPendingTotal_ = 0;
    std::uint64_t tenantArrivals_ = 0;
    WrrPicker wrr_;
    std::function<void()> backlogHook_;

    sim::StatSet stats_;

    /** Hot-path counters, resolved once at construction. */
    sim::Counter *cDroppedOversized_;
    sim::Counter *cDroppedNoTag_;
    sim::Counter *cDroppedRingFull_;
    sim::Counter *cDroppedTransport_;
    sim::Counter *cDroppedNoLive_;
    sim::Counter *cDispatched_;
    sim::Counter *cBatchFlushes_;
    sim::Counter *cRequeued_;
    sim::Counter *cDroppedTenantReject_;

    /** RSS steering state (policy Rss only; the table itself is
     *  cheap enough to sit here unconditionally). */
    net::steer::RssSteering rss_;
    /** Destination of the most recent dispatch (see pick()). */
    net::Address rssDst_{};

    sim::StatSet steerStats_;
    sim::StatSet admissionStats_;
    sim::Counter *cSteerPicks_;
    sim::Counter *cSteerFallbacks_;
    sim::Counter *cAdmitted_;
    sim::Counter *cShed_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_DISPATCHER_HH
