/**
 * @file
 * wirbench: the benchmark's cell driver.
 *
 * Runs (workload, design) cells through the simulator library's
 * public entry points and prints one JSON line per cell sample on
 * stdout. run.py turns the lines into metrics and checks the outputs.
 *
 *   wirbench cells --backend fixed|detailed --cells SF/Base,SF/RLPV,...
 *                  [--jobs N] [--trace] [--spans FILE] [--setup-only]
 *   wirbench sandbox --cells LIST --dir DIR
 *
 * `cells` runs the list once, in the given order (one pass; run.py
 * starts one process per pass). Samples and spans are timed on the
 * calling thread's CPU clock, so time the thread spends descheduled on
 * a busy host is left out. An untraced sample times makeWorkload +
 * runWorkload as one call. With --trace every sample is traced
 * instead: the same work split into makeWorkload, Gpu::run,
 * computeEnergy and the memory digest, each recorded as a span that is
 * kept in memory and written to --spans at exit. --jobs N (N > 1)
 * shares the cells out to N threads: the serve workload's output check
 * and the backend-twin probe. --setup-only prints the ready line once
 * the cells are resolved and exits: the set-up probe.
 *
 * `sandbox` runs each cell once untimed, then times it twice on the
 * wall clock (the forked child's CPU time is not the caller's):
 * in-process runWorkload, then sweep::ResultCache::get with the forked
 * sandbox on a fresh cache under DIR.
 *
 * Exit codes: 0 ok, 1 a cell failed, 2 bad usage.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash_h3.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"
#include "sim/designs.hh"
#include "sim/gpu.hh"
#include "sim/runner.hh"
#include "sweep/result_cache.hh"
#include "workloads/workloads.hh"

using namespace wir;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

long long
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

/** CPU time of the calling thread. */
long long
cpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

struct Cell
{
    std::string label; ///< "SF/RLPV"
    std::string abbr;
    DesignConfig design;
};

struct Span
{
    unsigned long long id; ///< shared by every span of one sample
    const char *name;
    const char *parent;    ///< "" for the sample's root span
    long long start;
    long long end;
};

struct Sample
{
    const Cell *cell = nullptr;
    bool traced = false;
    long long ns = 0;
    long long makeNs = 0, runNs = 0, energyNs = 0;
    bool failed = false;
    std::string error;
    SimStats stats;
    double gpuPj = 0;
    u64 digest = 0;
};

[[noreturn]] void
usageError(const std::string &why)
{
    std::fprintf(stderr, "wirbench: %s\n", why.c_str());
    std::exit(2);
}

std::vector<Cell>
parseCells(const std::string &list)
{
    std::vector<Cell> cells;
    std::stringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        size_t slash = item.find('/');
        if (slash == std::string::npos)
            usageError("cell '" + item + "' is not WORKLOAD/DESIGN");
        Cell cell;
        cell.label = item;
        cell.abbr = item.substr(0, slash);
        cell.design = designByName(item.substr(slash + 1));
        bool known = false;
        for (const auto &info : workloadRegistry())
            known = known || cell.abbr == info.abbr;
        if (!known)
            usageError("unknown workload '" + cell.abbr + "'");
        cells.push_back(std::move(cell));
    }
    if (cells.empty())
        usageError("--cells is empty");
    return cells;
}

u64
statsHash(const SimStats &stats)
{
    u64 hash = fnv1a64(nullptr, 0);
    for (const auto &[name, value] : stats.items())
        hash = fnv1a64(&value, sizeof value, hash);
    return hash;
}

std::string
hex(u64 value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

Sample
runCell(const Cell &cell, const MachineConfig &machine, bool traced,
        unsigned long long id, std::vector<Span> &spans)
{
    Sample s;
    s.cell = &cell;
    s.traced = traced;
    try {
        if (!traced) {
            long long t0 = cpuNs();
            RunResult r = runWorkload(makeWorkload(cell.abbr),
                                      cell.design, machine);
            s.ns = cpuNs() - t0;
            s.stats = r.stats;
            s.gpuPj = r.energy.gpuTotal();
            s.digest = r.finalMemoryDigest;
            return s;
        }
        long long t0 = cpuNs();
        Workload workload = makeWorkload(cell.abbr);
        long long t1 = cpuNs();
        Gpu gpu(machine, cell.design);
        s.stats = gpu.run(workload.kernel, workload.image);
        long long t2 = cpuNs();
        s.gpuPj = computeEnergy(s.stats).gpuTotal();
        long long t3 = cpuNs();
        std::vector<u32> memory = workload.image.snapshotGlobal();
        s.digest = fnv1a64(memory.data(), memory.size() * sizeof(u32));
        long long t4 = cpuNs();
        s.ns = t4 - t0;
        s.makeNs = t1 - t0;
        s.runNs = t2 - t1;
        s.energyNs = t3 - t2;
        spans.push_back({id, "cell", "", t0, t4});
        spans.push_back({id, "workloads.make", "cell", t0, t1});
        spans.push_back({id, "sim.run", "cell", t1, t2});
        spans.push_back({id, "energy.compute", "cell", t2, t3});
        spans.push_back({id, "digest", "cell", t3, t4});
    } catch (const SimError &err) {
        s.failed = true;
        s.error = err.what();
    }
    return s;
}

void
printSample(const Sample &s, unsigned long long id)
{
    std::ostringstream out;
    out << "{\"id\":" << id << ",\"cell\":\"" << s.cell->label
        << "\",\"traced\":" << (s.traced ? "true" : "false")
        << ",\"ns\":" << s.ns;
    if (s.failed) {
        std::string why;
        for (char c : s.error)
            why += c == '"' || c == '\\' || c < 0x20 ? '?' : c;
        out << ",\"failed\":true,\"error\":\"" << why << "\"}";
        std::puts(out.str().c_str());
        return;
    }
    char pj[40];
    std::snprintf(pj, sizeof pj, "%.17g", s.gpuPj);
    out << ",\"make_ns\":" << s.makeNs << ",\"run_ns\":" << s.runNs
        << ",\"energy_ns\":" << s.energyNs << ",\"digest\":\""
        << hex(s.digest) << "\",\"stats_hash\":\""
        << hex(statsHash(s.stats)) << "\",\"gpu_pj\":" << pj
        << ",\"stats\":{";
    bool first = true;
    for (const auto &[name, value] : s.stats.items()) {
        out << (first ? "" : ",") << '"' << name << "\":" << value;
        first = false;
    }
    out << "}}";
    std::puts(out.str().c_str());
}

long long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atoll(line.c_str() + 6);
    }
    return 0;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           const std::vector<std::string> &labels)
{
    std::ofstream out(path);
    for (const Span &span : spans) {
        out << "{\"id\":" << span.id << ",\"cell\":\""
            << labels[span.id] << "\",\"name\":\"" << span.name
            << "\",\"parent\":\"" << span.parent
            << "\",\"start_ns\":" << span.start
            << ",\"end_ns\":" << span.end << "}\n";
    }
    if (!out)
        usageError("cannot write span file '" + path + "'");
}

struct Args
{
    std::string mode;
    std::string cells;
    std::string backend = "fixed";
    std::string spans;
    std::string dir;
    unsigned jobs = 1;
    bool trace = false;
    bool setupOnly = false;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usageError("usage: wirbench cells|sandbox --cells LIST ...");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--cells")
            args.cells = next();
        else if (arg == "--backend")
            args.backend = next();
        else if (arg == "--spans")
            args.spans = next();
        else if (arg == "--dir")
            args.dir = next();
        else if (arg == "--jobs")
            args.jobs = unsigned(std::max(1, std::atoi(next().c_str())));
        else if (arg == "--trace")
            args.trace = true;
        else if (arg == "--setup-only")
            args.setupOnly = true;
        else
            usageError("unknown argument '" + arg + "'");
    }
    if (args.mode != "cells" && args.mode != "sandbox")
        usageError("unknown mode '" + args.mode + "'");
    if (args.mode == "sandbox" && args.dir.empty())
        usageError("sandbox needs --dir");
    return args;
}

int
cmdCells(const Args &args, const std::vector<Cell> &cells,
         const MachineConfig &machine)
{
    // Cells shared out to the threads in list order.
    std::vector<Sample> samples(cells.size());
    std::vector<std::vector<Span>> threadSpans(args.jobs);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < args.jobs; t++) {
        threads.emplace_back([&, t] {
            for (size_t i = next++; i < cells.size(); i = next++)
                samples[i] = runCell(cells[i], machine, args.trace, i,
                                     threadSpans[t]);
        });
    }
    for (auto &thread : threads)
        thread.join();
    std::vector<Span> spans;
    for (auto &part : threadSpans)
        spans.insert(spans.end(), part.begin(), part.end());
    std::vector<std::string> labels;

    int status = 0;
    for (size_t i = 0; i < samples.size(); i++) {
        printSample(samples[i], i);
        labels.push_back(samples[i].cell->label);
        status = samples[i].failed ? 1 : status;
    }
    std::printf("{\"peak_rss_kb\":%lld}\n", peakRssKb());
    if (!args.spans.empty())
        writeSpans(args.spans, spans, labels);
    return status;
}

int
cmdSandbox(const Args &args, const std::vector<Cell> &cells,
           const MachineConfig &machine)
{
    int status = 0;
    for (size_t i = 0; i < cells.size(); i++) {
        const Cell &cell = cells[i];
        // Untimed warm-up, so neither timed run pays first-touch costs.
        runWorkloadSafe(cell.abbr, cell.design, machine);
        long long t0 = wallNs();
        RunResult local =
            runWorkloadSafe(cell.abbr, cell.design, machine);
        long long t1 = wallNs();

        sweep::Options opts;
        opts.machine = machine;
        opts.jobs = 1;
        opts.progress = false;
        opts.cacheDir = args.dir + "/" + std::to_string(i);
        opts.isolate = true;
        opts.sandbox.enabled = true;
        sweep::ResultCache cache(opts);
        long long t2 = wallNs();
        const RunResult &isolated = cache.get(cell.abbr, cell.design);
        long long t3 = wallNs();

        bool same = !local.failed && !isolated.failed &&
                    local.stats.cycles == isolated.stats.cycles &&
                    local.stats.warpInstsCommitted ==
                        isolated.stats.warpInstsCommitted &&
                    local.finalMemoryDigest ==
                        isolated.finalMemoryDigest;
        status = same ? status : 1;
        std::printf("{\"cell\":\"%s\",\"inproc_ns\":%lld,"
                    "\"isolate_ns\":%lld,\"same\":%s}\n",
                    cell.label.c_str(), t1 - t0, t3 - t2,
                    same ? "true" : "false");
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        MachineConfig machine;
        machine.memBackend = memBackendByName(args.backend);
        validateConfig(machine);
        std::vector<Cell> cells = parseCells(args.cells);
        if (args.setupOnly) {
            std::puts("{\"ready\":true}");
            return 0;
        }
        return args.mode == "cells" ? cmdCells(args, cells, machine)
                                    : cmdSandbox(args, cells, machine);
    } catch (const ConfigError &err) {
        usageError(err.what());
    }
}
