#include "core/sim_config.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace migc
{

namespace
{

/** Shared cache template values derived from Table 1 latencies. */
void
fillCacheDefaults(SimConfig &c)
{
    // L1: 16 KB, 16-way, 64 B lines -> 16 sets; ~50 GPU cycles
    // uncontested (Table 1).
    c.l1.size = 16 * 1024;
    c.l1.assoc = 16;
    c.l1.lineSize = 64;
    c.l1.lookupLatency = Cycles(40);
    c.l1.responseLatency = Cycles(4);
    c.l1.bypassLatency = Cycles(2);
    // Enough MSHRs that allocation blocking (16 sets x 16 ways), not
    // miss tracking, is the first cache-side limiter - the paper's
    // stall mechanism (Section VI.C.1).
    c.l1.mshrs = 128;
    c.l1.targetsPerMshr = 8;
    c.l1.bypassEntries = 1024; // GPU coalescers track many pendings
    c.l1.writeBufDepth = 16;
    c.l1.memQueueDepth = 64;
    c.l1.clockPeriod = c.gpu.clockPeriod;

    // L2 bank: 16-way, 64 B lines; xbar + bank ~125 cycles.
    c.l2Bank.assoc = 16;
    c.l2Bank.lineSize = 64;
    c.l2Bank.lookupLatency = Cycles(40);
    c.l2Bank.responseLatency = Cycles(4);
    c.l2Bank.bypassLatency = Cycles(2);
    c.l2Bank.mshrs = 64;
    c.l2Bank.targetsPerMshr = 16;
    c.l2Bank.bypassEntries = 512;
    c.l2Bank.writeBufDepth = 32;
    c.l2Bank.memQueueDepth = 64;
    c.l2Bank.dbiRows = 64;
    c.l2Bank.clockPeriod = c.gpu.clockPeriod;

    c.xbar.latency = Cycles(12);
    c.xbar.outputGap = Cycles(1);
    c.xbar.queueDepth = 32;
}

} // namespace

SimConfig
SimConfig::paperConfig()
{
    SimConfig c;
    c.name = "paper";
    c.gpu.numCus = 64;
    fillCacheDefaults(c);
    c.l2Banks = 16;
    c.l2Bank.size = 4ULL * 1024 * 1024 / c.l2Banks;
    c.xbar.numInputs = c.gpu.numCus;
    c.xbar.numOutputs = c.l2Banks;
    c.dram.channels = 16;
    c.workloadScale = 4.0;
    return c;
}

SimConfig
SimConfig::defaultConfig()
{
    SimConfig c;
    c.name = "default";
    c.gpu.numCus = 16;
    fillCacheDefaults(c);
    c.l2Banks = 8;
    c.l2Bank.size = 1ULL * 1024 * 1024 / c.l2Banks;
    c.xbar.numInputs = c.gpu.numCus;
    c.xbar.numOutputs = c.l2Banks;
    c.dram.channels = 8;
    // Half-scale footprints keep a full 17x6 sweep to minutes while
    // preserving every footprint:capacity ratio (docs/ARCHITECTURE.md).
    c.workloadScale = 0.5;
    return c;
}

SimConfig
SimConfig::testConfig()
{
    SimConfig c;
    c.name = "test";
    c.gpu.numCus = 4;
    fillCacheDefaults(c);
    c.l2Banks = 4;
    c.l2Bank.size = 256ULL * 1024 / c.l2Banks;
    c.xbar.numInputs = c.gpu.numCus;
    c.xbar.numOutputs = c.l2Banks;
    c.dram.channels = 4;
    c.dram.readQDepth = 32;
    c.dram.writeQDepth = 192;
    c.dram.writeHighWatermark = 48;
    c.dram.writeLowWatermark = 12;
    c.workloadScale = 0.125;
    return c;
}

std::vector<SimConfig>
SimConfig::presets()
{
    return {defaultConfig(), paperConfig(), testConfig()};
}

SimConfig
SimConfig::preset(const std::string &name)
{
    std::vector<std::string> names;
    for (SimConfig &c : presets()) {
        if (c.name == name)
            return std::move(c);
        names.push_back(c.name);
    }
    fatal("unknown config preset '%s' (valid: %s)", name.c_str(),
          joinStrings(names).c_str());
}

namespace
{

/** Append one cache template's structural fields to @p out. */
void
appendCacheKey(std::string &out, const char *tag,
               const GpuCacheConfig &c)
{
    // Policy flags and the seed are excluded: System applies the
    // run's policy and derives per-cache seeds itself, so they do
    // not distinguish structures.
    out += csprintf(
        "|%s:%llu:%u:%u:%llu:%llu:%llu:%zu:%zu:%zu:%zu:%zu:%llu:%d:"
        "%u:%zu",
        tag, static_cast<unsigned long long>(c.size), c.assoc,
        c.lineSize, static_cast<unsigned long long>(c.lookupLatency.value()),
        static_cast<unsigned long long>(c.responseLatency.value()),
        static_cast<unsigned long long>(c.bypassLatency.value()),
        c.mshrs, c.targetsPerMshr, c.bypassEntries, c.writeBufDepth,
        c.memQueueDepth, static_cast<unsigned long long>(c.clockPeriod),
        static_cast<int>(c.repl), c.bankInterleaveBits, c.dbiRows);
}

} // namespace

std::string
SimConfig::structureKey() const
{
    std::string key;
    key += csprintf("gpu:%u:%u:%u:%u:%u:%llu:%u:%zu:%llu:%llu",
                    gpu.numCus, gpu.simdsPerCu, gpu.wfSlotsPerSimd,
                    gpu.wavefrontSize, gpu.lineSize,
                    static_cast<unsigned long long>(gpu.clockPeriod),
                    gpu.memIssueWidth, gpu.memQueueDepth,
                    static_cast<unsigned long long>(gpu.launchLatency),
                    static_cast<unsigned long long>(
                        gpu.drainPollInterval.value()));
    appendCacheKey(key, "l1", l1);
    appendCacheKey(key, "l2", l2Bank);
    key += csprintf("|l2banks:%u", l2Banks);
    key += csprintf("|xbar:%llu:%llu:%zu",
                    static_cast<unsigned long long>(xbar.latency.value()),
                    static_cast<unsigned long long>(
                        xbar.outputGap.value()),
                    xbar.queueDepth);
    key += csprintf(
        "|dram:%u:%u:%u:%u:%llu:%llu:%llu:%llu:%llu:%llu:%llu:%llu:"
        "%zu:%zu:%zu:%zu:%zu:%llu:%u:%d",
        dram.channels, dram.banksPerChannel, dram.rowBytes,
        dram.burstBytes, static_cast<unsigned long long>(dram.tBurst),
        static_cast<unsigned long long>(dram.tCas),
        static_cast<unsigned long long>(dram.tRcd),
        static_cast<unsigned long long>(dram.tRp),
        static_cast<unsigned long long>(dram.tWr),
        static_cast<unsigned long long>(dram.tRtw),
        static_cast<unsigned long long>(dram.tWtr),
        static_cast<unsigned long long>(dram.respLatency),
        dram.readQDepth, dram.writeQDepth, dram.writeHighWatermark,
        dram.writeLowWatermark, dram.writeEagerThreshold,
        static_cast<unsigned long long>(dram.writeIdleDrainDelay),
        dram.schedulerWindow, dram.bankXorHash ? 1 : 0);
    key += csprintf("|pred:%zu:%u:%u:%u:%u", predictor.entries,
                    predictor.counterBits, predictor.threshold,
                    predictor.initialValue, predictor.sampleInterval);
    key += csprintf("|scale:%.6f", workloadScale);
    return key;
}

std::string
SimConfig::signature() const
{
    return csprintf("%s:cus%u:l2x%u:%ukB:ch%u:scale%.3f:h%016llx:"
                    "seed%llu",
                    name.c_str(), gpu.numCus, l2Banks,
                    static_cast<unsigned>(l2Bank.size / 1024),
                    dram.channels, workloadScale,
                    static_cast<unsigned long long>(
                        fnv1a(structureKey())),
                    static_cast<unsigned long long>(seed));
}

} // namespace migc
