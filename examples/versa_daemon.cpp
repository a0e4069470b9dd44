// versa_daemon — a thin service-mode daemon (DESIGN.md §10).
//
// One VersaService over one shared runtime; N in-process client threads
// play the role of connections, each submitting small task graphs on
// behalf of its tenant and waiting for them. This is the in-process
// flavor of the daemon: the accept loop is the thread spawn below, and a
// socket front end would marshal GraphSpecs into exactly these calls.
//
// Two tenants by default — "batch" (weight 1, generous quota) and
// "interactive" (weight 3, tight in-flight quota) — so the run shows both
// sides of the service: weighted fair-share interleaving between tenants
// and graceful typed rejection when a quota is exceeded (rejected graphs
// are retried after a completed one drains quota headroom).
//
//   versa_daemon [--clients N] [--graphs M] [--backend threads|sim]
//                [--profile-cache FILE]
//
// --profile-cache warm-starts the runtime's profile table from FILE (a
// ProfileStore, loaded at the first submit) and, on the thread backend,
// saves the learned profile back to FILE when the daemon exits.
//
// Exit 0 iff every submitted graph completed or was cleanly rejected and
// the per-tenant accounting reconciles.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "machine/presets.h"
#include "perf/profile_report.h"
#include "runtime/config.h"
#include "service/versa_service.h"

namespace {

using namespace versa;
using namespace versa::service;

struct Options {
  int clients = 4;
  int graphs_per_client = 25;
  Backend backend = Backend::kThreads;
  std::string profile_cache;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--clients N] [--graphs M] [--backend threads|sim]"
               " [--profile-cache FILE]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      const char* v = need_value("--clients");
      if (v == nullptr) return false;
      opt.clients = std::atoi(v);
    } else if (arg == "--graphs") {
      const char* v = need_value("--graphs");
      if (v == nullptr) return false;
      opt.graphs_per_client = std::atoi(v);
    } else if (arg == "--backend") {
      const char* v = need_value("--backend");
      if (v == nullptr) return false;
      if (std::strcmp(v, "threads") == 0) {
        opt.backend = Backend::kThreads;
      } else if (std::strcmp(v, "sim") == 0) {
        opt.backend = Backend::kSim;
      } else {
        std::fprintf(stderr, "%s: unknown backend '%s'\n", argv[0], v);
        return false;
      }
    } else if (arg == "--profile-cache") {
      const char* v = need_value("--profile-cache");
      if (v == nullptr) return false;
      opt.profile_cache = v;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (opt.clients < 1 || opt.graphs_per_client < 1) {
    std::fprintf(stderr, "%s: --clients and --graphs must be >= 1\n", argv[0]);
    return false;
  }
  return true;
}

/// A small fork-join spec: one source task fans out to `width` readers
/// over a shared region, then a sink joins them through a result region.
GraphSpec make_spec(TaskTypeId type, std::size_t width) {
  GraphSpec spec;
  spec.regions.push_back({"input", 1 << 16});
  spec.regions.push_back({"output", 1 << 12});
  TaskSpec source;
  source.type = type;
  source.accesses.push_back({0, AccessMode::kOut});
  spec.tasks.push_back(source);
  for (std::size_t i = 0; i < width; ++i) {
    TaskSpec reader;
    reader.type = type;
    reader.accesses.push_back({0, AccessMode::kIn});
    reader.accesses.push_back({1, AccessMode::kInOut});
    spec.tasks.push_back(reader);
  }
  TaskSpec sink;
  sink.type = type;
  sink.accesses.push_back({1, AccessMode::kIn});
  spec.tasks.push_back(sink);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  const Machine machine = make_smp_machine(4);
  VersaServiceConfig config;
  config.runtime.backend = opt.backend;
  config.runtime.scheduler = "versioning";
  config.runtime.profile_load_path = opt.profile_cache;
  if (opt.backend == Backend::kThreads) {
    config.runtime.profile_save_path = opt.profile_cache;
  }
  VersaService svc(machine, config);

  std::atomic<std::uint64_t> executed{0};
  const TaskTypeId work = svc.runtime().declare_task("daemon_work");
  svc.runtime().add_version(
      work, DeviceKind::kSmp, "smp",
      [&executed](TaskContext&) {
        executed.fetch_add(1, std::memory_order_relaxed);
      });

  // Two tenants. "interactive" gets 3x the dispatch weight but a tight
  // in-flight budget: with enough clients its excess submissions are
  // rejected with kTaskQuota instead of queueing without bound.
  TenantQuota batch_quota;
  batch_quota.weight = 1;
  Session batch = svc.open_session("batch", batch_quota);
  TenantQuota inter_quota;
  inter_quota.weight = 3;
  inter_quota.max_in_flight_tasks = 24;
  Session interactive = svc.open_session("interactive", inter_quota);

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  const GraphSpec spec = make_spec(work, 4);

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(opt.clients));
  for (int c = 0; c < opt.clients; ++c) {
    // Alternate tenants across client threads.
    Session session = (c % 2 == 0) ? batch : interactive;
    clients.emplace_back([&, session]() mutable {
      for (int g = 0; g < opt.graphs_per_client; ++g) {
        SubmitResult result = session.submit(spec);
        if (!result.admitted()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          // Quota pressure is transient: drain by waiting a beat, retry
          // once, and drop the graph if the tenant is still over budget.
          std::this_thread::yield();
          result = session.submit(spec);
          if (!result.admitted()) continue;
        }
        session.wait(result.graph);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  svc.shutdown();
  if (!opt.profile_cache.empty()) {
    std::printf("%s\n",
                profile_load_summary(svc.runtime().profile_load_result())
                    .c_str());
  }

  std::printf("graphs completed: %" PRIu64 "  rejected submissions: %" PRIu64
              "  tasks executed: %" PRIu64 "\n",
              completed.load(), rejected.load(), executed.load());
  bool ok = true;
  for (const TenantId tenant : {batch.tenant(), interactive.tenant()}) {
    const TenantStats stats = svc.stats(tenant);
    std::printf(
        "tenant %u: admitted=%" PRIu64 " completed=%" PRIu64
        " rejected=%" PRIu64 " tasks=%" PRIu64 " in-flight=%" PRIu64 "\n",
        tenant, stats.admitted_graphs, stats.completed_graphs,
        stats.rejected_graphs, stats.completed_tasks, stats.in_flight_tasks);
    if (stats.admitted_graphs != stats.completed_graphs ||
        stats.in_flight_tasks != 0) {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "FAILED: tenant accounting did not reconcile\n");
    return 1;
  }
  if (const auto* sanitizer = svc.runtime().sanitizer()) {
    sanitizer->render(std::cout);
    if (sanitizer->error_count() > 0) {
      std::fprintf(stderr, "FAILED: sanitizer reported %" PRIu64 " error(s)\n",
                   sanitizer->error_count());
      return 3;
    }
  }
  return 0;
}
