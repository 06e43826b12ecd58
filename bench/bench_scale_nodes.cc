// Out-of-core scaling study: sample + encode throughput and peak RSS of
// the prompt-generation pipeline over growing MagSim graphs, comparing the
// flat in-memory CSR backend (ReadCsrShards -> CsrGraph) against the
// memory-mapped shard backend (CsrStore). Both run the identical
// Sampler + PromptGenerator stack over the GraphView seam, so their
// embeddings must agree bitwise — the benchmark checksums the embedding
// bytes of each backend and reports the match as a verdict metric.
//
// Phases per graph size (peak RSS is reset between phases via
// /proc/self/clear_refs, with a current-RSS fallback):
//   gen    stream the shard directory to disk (bounded memory)
//   mmap   CsrStore::Open + sample/encode N ego-nets
//   flat   ReadCsrShards + the same sample/encode pass
// The mmap phase runs first so its resident footprint is measured from a
// cold page cache of its own process pages, not the flat copy's heap.
//
// Acceptance gate (scripts/check.sh runs tools/check_bench over the
// report): at every size, embeddings bitwise equal and throughput above the
// floor; at >= 1M nodes, mmap peak RSS < 50% of flat peak RSS.
//
//   ./bench_scale_nodes [--nodes-list=10000,100000,1000000] [--samples=N]
//       [--shard-dir=DIR] [--keep-shards] [--batch=N] [--seed=N]
//       [--outdir=DIR]
// Writes <outdir>/scale_nodes.csv and <outdir>/BENCH_scale_nodes.json.

#include "bench_common.h"

#include <cinttypes>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "data/stream_synthetic.h"
#include "graph/sampler.h"
#include "graph/store/csr_store.h"
#include "util/checksum.h"
#include "util/proc_stats.h"

namespace gp::bench {
namespace {

struct ScaleOptions {
  std::vector<int64_t> nodes_list = {10000, 100000, 1000000};
  int samples = 256;   // ego-nets sampled + encoded per backend
  int batch = 64;      // subgraphs per packed encode
  std::string shard_dir;  // default <outdir>/scale_shards
  bool keep_shards = false;
};

std::vector<int64_t> ParseNodesList(const std::string& text) {
  std::vector<int64_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(std::stoll(item));
    pos = comma + 1;
  }
  return out;
}

// Phase-scoped peak-RSS meter. When the kernel supports clearing the
// high-water mark we read VmHWM after the phase; otherwise we fall back to
// the larger of the VmRSS readings around it (an underestimate for spiky
// phases, flagged in the report via peak_rss_exact). Freed-but-retained
// allocator arenas from the previous phase are returned to the OS first,
// so each phase's number reflects its own working set.
class PhaseRss {
 public:
  PhaseRss() {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    reset_ok_ = ResetPeakRss();
    before_ = ReadCurrentRssKb();
  }

  int64_t Finish() const {
    if (reset_ok_) return ReadPeakRssKb();
    return std::max(before_, ReadCurrentRssKb());
  }
  bool exact() const { return reset_ok_; }

 private:
  bool reset_ok_ = false;
  int64_t before_ = 0;
};

// Deterministic sample centers, identical across backends and sizes.
std::vector<int> MakeCenters(int64_t num_nodes, int samples, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> centers(samples);
  for (int& c : centers) {
    c = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
  }
  return centers;
}

struct BackendRun {
  double open_seconds = 0;
  double sample_encode_seconds = 0;
  int64_t peak_rss_kb = 0;
  bool rss_exact = true;
  uint32_t embedding_crc = 0;
  int subgraphs = 0;
};

// Samples `centers` ego-nets off `view` and encodes them in batches with a
// fresh deterministically-seeded generator; returns timing + a CRC32 over
// every embedding byte (batch order is fixed, so equal backends produce
// equal CRCs).
void SampleAndEncode(const GraphView& view, const std::vector<int>& centers,
                     int batch, uint64_t seed, BackendRun* run) {
  PromptGeneratorConfig config;
  config.gnn.in_dim = view.feature_dim();
  config.sampler.num_hops = 2;
  config.sampler.max_nodes = 40;
  Rng init_rng(seed);
  PromptGenerator generator(config, &init_rng);

  Stopwatch timer;
  uint32_t crc = 0;
  for (size_t begin = 0; begin < centers.size();
       begin += static_cast<size_t>(batch)) {
    const size_t end =
        std::min(centers.size(), begin + static_cast<size_t>(batch));
    const std::vector<int> chunk(centers.begin() + begin,
                                 centers.begin() + end);
    // Per-item seeding: element i of the batch is always sampled from
    // Rng(mix(seed, i)), so the split into batches does not matter.
    std::vector<Subgraph> subgraphs = SampleBatch(
        view, generator.config().sampler, chunk, seed + 0x5eed + begin);
    const Tensor embeddings = generator.EmbedSubgraphs(view, subgraphs);
    crc = Crc32(embeddings.data().data(),
                static_cast<size_t>(embeddings.size()) * sizeof(float),
                crc);
    run->subgraphs += static_cast<int>(subgraphs.size());
  }
  run->sample_encode_seconds = timer.ElapsedSeconds();
  run->embedding_crc = crc;
}

// Returns the number of failed sizes (phase error or backend mismatch),
// so the ctest smoke run fails loudly instead of reporting into the void.
int RunScale(const Env& env, const ScaleOptions& opt,
             BenchReporter* report) {
  int failures = 0;
  TablePrinter table({"nodes", "backend", "open_seconds",
                      "sample_encode_seconds", "subgraphs_per_second",
                      "peak_rss_kb", "crc_match"});

  for (const int64_t n : opt.nodes_list) {
    const std::string dir =
        opt.shard_dir + "/magsim_" + std::to_string(n);
    const std::string tag = "magsim/n=" + std::to_string(n);

    // --- gen phase ---
    PhaseRss gen_rss;
    Stopwatch gen_timer;
    StreamNodeGraphConfig config;
    config.num_nodes = n;
    config.seed = env.seed;
    const Status gen_status = GenerateMagSimShards(config, dir);
    if (!gen_status.ok()) {
      std::fprintf(stderr, "bench_scale_nodes: generate %s: %s\n",
                   dir.c_str(), gen_status.ToString().c_str());
      ++failures;
      continue;
    }
    const double gen_seconds = gen_timer.ElapsedSeconds();
    report->AddMetric(tag + "/gen_seconds", gen_seconds, "s");
    report->AddMetric(tag + "/gen_peak_rss_kb",
                      static_cast<double>(gen_rss.Finish()), "kB");

    const std::vector<int> centers =
        MakeCenters(n, opt.samples, env.seed + 42);

    // --- mmap phase (first: measures its own pages, not the flat heap) ---
    BackendRun mmap_run;
    {
      PhaseRss rss;
      Stopwatch open_timer;
      // Lazy open: skip the sequential CRC pass so the phase measures the
      // true out-of-core working set — only the pages the sampler actually
      // touches become resident. Integrity of the shard frames is covered
      // by the store tests and by gp_gen_shards' verification pass (and
      // the flat backend below re-reads everything under the CRC anyway).
      CsrStoreOptions lazy;
      lazy.verify_checksums = false;
      auto store_or = CsrStore::Open(dir, lazy);
      if (!store_or.ok()) {
        std::fprintf(stderr, "bench_scale_nodes: open %s: %s\n",
                     dir.c_str(), store_or.status().ToString().c_str());
        ++failures;
        continue;
      }
      mmap_run.open_seconds = open_timer.ElapsedSeconds();
      SampleAndEncode(**store_or, centers, opt.batch, env.seed + 7,
                      &mmap_run);
      mmap_run.peak_rss_kb = rss.Finish();
      mmap_run.rss_exact = rss.exact();
    }

    // --- flat phase ---
    BackendRun flat_run;
    {
      PhaseRss rss;
      Stopwatch open_timer;
      auto flat_or = ReadCsrShards(dir);
      if (!flat_or.ok()) {
        std::fprintf(stderr, "bench_scale_nodes: read %s: %s\n",
                     dir.c_str(), flat_or.status().ToString().c_str());
        ++failures;
        continue;
      }
      flat_run.open_seconds = open_timer.ElapsedSeconds();
      SampleAndEncode(*flat_or, centers, opt.batch, env.seed + 7,
                      &flat_run);
      flat_run.peak_rss_kb = rss.Finish();
      flat_run.rss_exact = rss.exact();
    }

    const bool crc_match = mmap_run.embedding_crc == flat_run.embedding_crc;
    const double rss_ratio =
        flat_run.peak_rss_kb > 0
            ? static_cast<double>(mmap_run.peak_rss_kb) /
                  static_cast<double>(flat_run.peak_rss_kb)
            : 0.0;

    struct Row {
      const char* backend;
      const BackendRun* run;
    };
    for (const Row& row : {Row{"mmap", &mmap_run}, Row{"flat", &flat_run}}) {
      const BackendRun& r = *row.run;
      const double throughput =
          r.sample_encode_seconds > 0
              ? r.subgraphs / r.sample_encode_seconds
              : 0.0;
      const std::string prefix = tag + "/" + row.backend;
      report->AddMetric(prefix + "/open_seconds", r.open_seconds, "s");
      report->AddMetric(prefix + "/sample_encode_throughput", throughput,
                        "subgraphs/s");
      report->AddMetric(prefix + "/peak_rss_kb",
                        static_cast<double>(r.peak_rss_kb), "kB");
      report->AddMetric(prefix + "/peak_rss_exact", r.rss_exact ? 1 : 0, "");
      table.AddRow({std::to_string(n), row.backend,
                    TablePrinter::Num(r.open_seconds),
                    TablePrinter::Num(r.sample_encode_seconds),
                    TablePrinter::Num(throughput, 1),
                    std::to_string(r.peak_rss_kb),
                    crc_match ? "1" : "0"});
    }
    report->AddMetric(tag + "/embedding_crc_match", crc_match ? 1 : 0, "");
    report->AddMetric(tag + "/mmap_over_flat_rss", rss_ratio, "");
    std::printf("n=%" PRId64 ": crc %s, mmap/flat RSS ratio %.2f\n", n,
                crc_match ? "match" : "MISMATCH", rss_ratio);
    if (!crc_match) ++failures;

    if (!opt.keep_shards) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  table.Print();
  WriteCsvOrWarn(table, env.outdir + "/scale_nodes.csv");
  return failures;
}

}  // namespace
}  // namespace gp::bench

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  const gp::bench::Env env = gp::bench::ParseEnv(argc, argv);

  gp::bench::ScaleOptions opt;
  opt.nodes_list = gp::bench::ParseNodesList(
      flags.GetString("nodes-list", "10000,100000,1000000"));
  opt.samples = static_cast<int>(flags.GetInt("samples", opt.samples));
  opt.batch = static_cast<int>(flags.GetInt("batch", opt.batch));
  opt.shard_dir = flags.GetString("shard-dir", env.outdir + "/scale_shards");
  opt.keep_shards = flags.GetBool("keep-shards", opt.keep_shards);

  gp::BenchReporter report("scale_nodes");
  report.AddConfig("seed", static_cast<int64_t>(env.seed));
  report.AddConfig("threads", static_cast<int64_t>(env.threads));
  report.AddConfig("samples", static_cast<int64_t>(opt.samples));
  report.AddConfig("batch", static_cast<int64_t>(opt.batch));
  report.AddConfig("nodes_list", flags.GetString("nodes-list",
                                                 "10000,100000,1000000"));

  const int failures = gp::bench::RunScale(env, opt, &report);

  const gp::Status status = report.WriteJson(env.outdir);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
  const gp::Status obs_status = gp::ExportConfiguredObservability();
  if (!obs_status.ok()) {
    std::fprintf(stderr, "warning: %s\n", obs_status.ToString().c_str());
  }
  return failures == 0 ? 0 : 1;
}
