/**
 * @file
 * A GCN-like compute unit: 4 SIMDs x 10 wavefront slots, one vector
 * instruction issued per SIMD per cycle, a coalescer feeding a
 * bounded per-CU memory queue, and an L1 port with retry flow
 * control.
 *
 * The tick event fires every cycle while a wavefront is ready to
 * issue (active, instructions left, not parked at waitLoads) or the
 * memory queue can drain; a load response, a port retry or a new
 * workgroup re-arms it. So a memory-bound phase still costs one event
 * per cycle: on the figure grid most CU ticks issue nothing, because
 * every ready wavefront waits for memory-queue space. Those ticks are
 * made cheap rather than absent (the tick count is part of every
 * run's statistics): a SIMD with no ready wavefront is not scanned,
 * and a SIMD whose last scan issued nothing is not scanned again
 * while the queue has fewer free entries than the cheapest of its
 * ready wavefronts needs.
 */

#ifndef MIGC_GPU_COMPUTE_UNIT_HH
#define MIGC_GPU_COMPUTE_UNIT_HH

#include <functional>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/wavefront.hh"
#include "mem/packet_pool.hh"
#include "mem/port.hh"
#include "sim/ring.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

class ComputeUnit : public SimObject
{
  public:
    ComputeUnit(std::string name, EventQueue &eq, PacketPool &pool,
                const GpuConfig &cfg, unsigned cu_id);

    /** Port to bind to this CU's L1 cpu-side port. */
    RequestPort &memPort() { return memPort_; }

    /** Dispatcher notification when a whole workgroup retires. */
    void
    onWorkgroupComplete(std::function<void(unsigned cu_id)> cb)
    {
        wgCompleteCb_ = std::move(cb);
    }

    /** Free wavefront slots across all SIMDs. */
    unsigned freeWfSlots() const;

    /**
     * Start a workgroup: @p programs holds one program per wavefront.
     * Caller must check freeWfSlots() >= programs.size().
     */
    void startWorkgroup(std::uint32_t wg_id,
                        std::vector<WavefrontProgram> programs);

    /** No live wavefronts and no memory traffic in flight. */
    bool idle() const;

    /**
     * Return to the just-constructed state, keeping all storage
     * (wavefront slots and the memory-queue ring) allocated.
     * The CU must be idle. Part of System::reset().
     */
    void reset();

    unsigned liveWavefronts() const { return liveWavefronts_; }

    std::uint64_t outstandingStores() const { return outstandingStores_; }

    void regStats(StatGroup &group) override;

    double vectorOps() const { return statVops_.value(); }

    /** Coalesced line requests issued (the paper's GPU memory
     *  requests; denominators of Figures 5 and 8). */
    double memRequests() const
    {
        return statLoadReqs_.value() + statStoreReqs_.value();
    }

  private:
    struct PendingLine
    {
        Addr addr;
        bool isLoad;
        Addr pc;
        int slot; ///< wavefront slot for loads; -1 for stores
    };

    void tick();
    void signalWork();
    bool issueFromSimd(unsigned simd);
    bool executeOp(int slot_index, Wavefront &wf);
    void issueMemory();
    void handleResponse(PacketPtr pkt);
    void wavefrontFinished(int slot_index);

    class CuMemPort : public RequestPort
    {
      public:
        CuMemPort(std::string name, ComputeUnit &cu)
            : RequestPort(std::move(name)), cu_(cu)
        {}

        void
        recvTimingResp(PacketPtr pkt) override
        {
            cu_.handleResponse(pkt);
        }

        void
        recvReqRetry() override
        {
            cu_.portBlocked_ = false;
            cu_.signalWork();
        }

      private:
        ComputeUnit &cu_;
    };

    PacketPool &pktPool_;
    GpuConfig cfg_;
    unsigned cuId_;

    /** Slot layout: simd s owns [s*slotsPerSimd, (s+1)*slotsPerSimd). */
    std::vector<Wavefront> slots_;
    std::vector<Tick> simdBusyUntil_;
    std::vector<unsigned> simdRoundRobin_;

    /** Per SIMD: ready wavefronts - exactly the ones a scan
     *  considers. */
    std::vector<unsigned> simdReady_;

    /**
     * Per SIMD: when its last scan issued nothing, the fewest lines
     * any of its ready wavefronts needs in the memory queue; 0 when
     * unknown. Every ready wavefront then sits at a memory op that
     * did not fit, and none can change until a scan issues, so the
     * SIMD is skipped while the queue has fewer free entries. A
     * wavefront becoming ready (a load response unparks it, or
     * startWorkgroup places it) clears the memo.
     */
    std::vector<std::size_t> simdNeedLines_;

    Ring<PendingLine> memQueue_;
    bool portBlocked_ = false;

    /** Loads sent and not yet answered; each load packet carries its
     *  wavefront slot in Packet::loadSlot. */
    std::uint64_t outstandingLoads_ = 0;

    std::uint64_t outstandingStores_ = 0;
    unsigned liveWavefronts_ = 0;

    /** True while any wavefront of workgroup @p wg holds a slot. */
    bool workgroupLive(std::uint32_t wg) const;

    std::function<void(unsigned)> wgCompleteCb_;

    CuMemPort memPort_;
    EventFunctionWrapper tickEvent_;

    StatScalar statVops_;
    StatScalar statLoadReqs_;
    StatScalar statStoreReqs_;
    StatScalar statLdsCycles_;
    StatScalar statActiveCycles_;
    StatScalar statWavefrontsRun_;
};

} // namespace migc

#endif // MIGC_GPU_COMPUTE_UNIT_HH
