#include "campaign/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace seg {
namespace {

constexpr char kMagic[] = "seg-campaign-checkpoint v1";

// Durability for the write-tmp-then-rename protocol. Renaming over the
// live checkpoint before the tmp file's data reaches disk inverts the
// guarantee the protocol exists for: after a crash the only copy can be
// the torn one. So the tmp file is flushed and fsync'd before the
// rename, and the parent directory is fsync'd after it so the rename
// itself (the directory entry) is durable too.
bool flush_and_sync(std::FILE* f) {
  if (std::fflush(f) != 0) return false;
#ifndef _WIN32
  if (fsync(fileno(f)) != 0) return false;
#endif
  return true;
}

void sync_parent_dir(const std::string& path) {
#ifndef _WIN32
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: the data itself is already synced
  fsync(fd);
  close(fd);
#else
  (void)path;
#endif
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::size_t CheckpointData::done_count() const {
  std::size_t count = 0;
  for (const std::uint8_t d : done) count += d != 0;
  return count;
}

bool save_checkpoint(const std::string& path, const CheckpointData& data) {
  SEG_PHASE("checkpoint_io");
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  bool ok = std::fprintf(f, "%s\n", kMagic) > 0;
  ok = ok && std::fprintf(f, "seed %" PRIu64 " hash %" PRIu64
                             " replicas %zu metrics %zu\n",
                          data.seed, data.spec_hash, data.done.size(),
                          data.metric_count) > 0;
  for (std::size_t g = 0; ok && g < data.done.size(); ++g) {
    if (!data.done[g]) continue;
    ok = std::fprintf(f, "r %zu", g) > 0;
    for (const double v : data.values[g]) {
      ok = ok && std::fprintf(f, " %016" PRIx64, double_bits(v)) > 0;
    }
    ok = ok && std::fprintf(f, "\n") > 0;
  }
  for (std::size_t i = 0; ok && i < data.trace.size(); ++i) {
    const StopDecision& d = data.trace[i];
    ok = std::fprintf(f, "s %" PRIu32 " %" PRIu32 " %s %016" PRIx64 "\n",
                      d.point, d.replicas, stop_rule_name(d.rule),
                      double_bits(d.bound)) > 0;
  }
  if (!data.trace.empty()) {
    ok = ok && std::fprintf(f, "trace %016" PRIx64 "\n",
                            decision_trace_hash(data.trace)) > 0;
  }
  ok = ok && std::fprintf(f, "end %zu\n", data.done_count()) > 0;
  ok = ok && flush_and_sync(f);
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

bool load_checkpoint(const std::string& path, CheckpointData* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return false;
  CheckpointData data;
  char magic[64] = {0};
  bool ok = std::fgets(magic, sizeof(magic), f) != nullptr;
  if (ok) {
    const std::size_t len = std::strlen(magic);
    if (len > 0 && magic[len - 1] == '\n') magic[len - 1] = '\0';
    ok = std::strcmp(magic, kMagic) == 0;
  }
  std::size_t replica_count = 0;
  ok = ok && std::fscanf(f, "seed %" SCNu64 " hash %" SCNu64
                            " replicas %zu metrics %zu\n",
                         &data.seed, &data.spec_hash, &replica_count,
                         &data.metric_count) == 4;
  // Cap allocations for corrupt headers (a campaign of a billion replicas
  // with values in memory is not a real workload).
  constexpr std::size_t kMaxReplicas = std::size_t{1} << 30;
  constexpr std::size_t kMaxMetrics = 4096;
  ok = ok && replica_count <= kMaxReplicas && data.metric_count <= kMaxMetrics;
  if (ok) {
    data.done.assign(replica_count, 0);
    data.values.assign(replica_count, {});
  }
  bool saw_trailer = false;
  std::size_t trailer_count = 0;
  bool saw_trace_hash = false;
  std::uint64_t trace_hash = 0;
  while (ok) {
    char tag[8] = {0};
    if (std::fscanf(f, "%7s", tag) != 1) break;  // EOF
    if (std::strcmp(tag, "r") == 0) {
      std::size_t g = 0;
      ok = std::fscanf(f, "%zu", &g) == 1 && g < replica_count;
      if (!ok) break;
      std::vector<double> row(data.metric_count);
      for (std::size_t m = 0; ok && m < data.metric_count; ++m) {
        std::uint64_t bits = 0;
        ok = std::fscanf(f, " %" SCNx64, &bits) == 1;
        row[m] = bits_double(bits);
      }
      if (ok) {
        data.done[g] = 1;
        data.values[g] = std::move(row);
      }
    } else if (std::strcmp(tag, "s") == 0) {
      StopDecision d;
      char rule_name[16] = {0};
      std::uint64_t bits = 0;
      ok = std::fscanf(f, " %" SCNu32 " %" SCNu32 " %15s %" SCNx64, &d.point,
                       &d.replicas, rule_name, &bits) == 4 &&
           parse_stop_rule(rule_name, &d.rule);
      if (ok) {
        d.bound = bits_double(bits);
        data.trace.push_back(d);
      }
    } else if (std::strcmp(tag, "trace") == 0) {
      ok = std::fscanf(f, " %" SCNx64, &trace_hash) == 1;
      saw_trace_hash = ok;
    } else if (std::strcmp(tag, "end") == 0) {
      // The trailer must be a complete line: a write cut anywhere inside
      // the final "end N\n" is a torn file, not a shorter checkpoint.
      ok = std::fscanf(f, "%zu", &trailer_count) == 1 &&
           std::fgetc(f) == '\n';
      saw_trailer = ok;
      break;
    } else {
      ok = false;
    }
  }
  std::fclose(f);
  if (!ok || !saw_trailer || trailer_count != data.done_count()) return false;
  // A decision trace must carry its own hash and the hash must fold back
  // from the entries — a torn or edited trace is a corrupt checkpoint.
  if (!data.trace.empty() || saw_trace_hash) {
    if (!saw_trace_hash || trace_hash != decision_trace_hash(data.trace)) {
      return false;
    }
  }
  *out = std::move(data);
  return true;
}

}  // namespace seg
