// Tests for the silodd subsystem (docs/MODEL.md §11-§12): the shared framing
// layer (including hostile/torn input), the text protocol, the daemon plan's
// bit-identity with the batch scheduler, admission-control edges, epoch
// batching, policy hot-reload, the trace-replay cross-check, the Unix-socket
// transport, and the crash-safety stack — write-ahead journal, torn-tail
// truncation, rid dedup, checkpoint compaction, and the recovery
// bit-identity contract.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/framing.h"
#include "src/common/units.h"
#include "src/core/policy_registry.h"
#include "src/serve/journal.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/flow_engine.h"
#include "src/sim/serve_replay.h"
#include "src/workload/trace_gen.h"

namespace silod {
namespace {

// ---------------------------------------------------------------------------
// Framing (satellite: one framing implementation for rt and serve).

TEST(Framing, RoundTripsTypeAndPayload) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ASSERT_TRUE(WriteRawFrame(fds[0], 7, "hello frame").ok());
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(7, frame->type);
  EXPECT_EQ("hello frame", frame->payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(Framing, PeerCloseIsOutOfRange) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  close(fds[0]);
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kOutOfRange, frame.status().code());
  close(fds[1]);
}

TEST(Framing, RejectsOversizeBody) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const std::string big(128, 'x');
  EXPECT_FALSE(WriteRawFrame(fds[0], 1, big, /*max_body=*/64).ok());
  close(fds[0]);
  close(fds[1]);
}

// Hostile input: a peer that dies mid-length-word must read as a mid-frame
// EOF (Internal), not as a clean close (OutOfRange) — the server logs the
// former and silently accepts the latter.
TEST(Framing, TornLengthWordIsMidFrameEof) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const std::uint8_t partial[2] = {0x05, 0x00};  // 2 of the 4 length bytes.
  ASSERT_EQ(2, ::send(fds[0], partial, 2, 0));
  close(fds[0]);
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kInternal, frame.status().code());
  close(fds[1]);
}

TEST(Framing, TornPayloadIsMidFrameEof) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  std::uint8_t header[4];
  PutU32(header, 10);  // Declares a 10-byte body...
  ASSERT_EQ(4, ::send(fds[0], header, 4, 0));
  ASSERT_EQ(3, ::send(fds[0], "abc", 3, 0));  // ... delivers 3, dies.
  close(fds[0]);
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kInternal, frame.status().code());
  close(fds[1]);
}

// An absurd declared length must be rejected from the 4-byte header alone —
// before any allocation — as must a zero length (no room for the type byte).
TEST(Framing, AbsurdAndZeroDeclaredLengthsRejected) {
  for (const std::uint32_t length : {0xFFFFFFFFu, 0u}) {
    int fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::uint8_t header[4];
    PutU32(header, length);
    ASSERT_EQ(4, ::send(fds[0], header, 4, 0));
    Result<RawFrame> frame = ReadRawFrame(fds[1]);
    ASSERT_FALSE(frame.ok()) << "length " << length;
    EXPECT_EQ(StatusCode::kInternal, frame.status().code());
    close(fds[0]);
    close(fds[1]);
  }
}

// Garbage after a valid frame corrupts only the stream from that point on:
// the first frame still parses, the garbage (whose first 4 bytes decode as
// an absurd length) is rejected instead of being allocated or spun on.
TEST(Framing, GarbageMidStreamDoesNotCorruptEarlierFrames) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ASSERT_TRUE(WriteRawFrame(fds[0], 3, "good frame").ok());
  const std::string garbage(32, '\xEE');  // Length word decodes to ~4 GB.
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fds[0], garbage.data(), garbage.size(), 0));
  close(fds[0]);
  Result<RawFrame> first = ReadRawFrame(fds[1]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(3, first->type);
  EXPECT_EQ("good frame", first->payload);
  Result<RawFrame> second = ReadRawFrame(fds[1]);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(StatusCode::kInternal, second.status().code());
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Protocol.

TEST(ServeProto, EscapeRoundTripsHostileBytes) {
  for (const std::string& hostile :
       {std::string("a b%c\n\t=\x01\x7f"), std::string(), std::string("%"),
        std::string("%41"), std::string("\xff\x80 "), std::string("\0x", 2)}) {
    Result<std::string> back = UnescapeToken(EscapeToken(hostile));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(hostile, *back);
  }
}

TEST(ServeProto, RequestRoundTrips) {
  ServeRequest request;
  request.verb = "submit";
  request.args["key"] = "job with spaces";
  request.args["t"] = "12.5";
  Result<ServeRequest> back = ServeRequest::Decode(request.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ("submit", back->verb);
  EXPECT_EQ("job with spaces", back->args.at("key"));
  EXPECT_EQ(12.5, *back->GetDouble("t"));
}

TEST(ServeProto, ResponseCarriesErrorsAndFields) {
  ServeResponse response = ServeResponse::FromStatus(Status::NotFound("no job 'x'"));
  Result<ServeResponse> back = ServeResponse::Decode(response.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back->ok());
  EXPECT_EQ(StatusCode::kNotFound, back->code);
  EXPECT_EQ("no job 'x'", back->error);
}

TEST(ServeProto, RejectsDuplicateKeysAndBadEscapes) {
  EXPECT_FALSE(ServeRequest::Decode("submit key=a key=b").ok());
  EXPECT_FALSE(ServeRequest::Decode("submit key=%zz").ok());
  EXPECT_FALSE(ServeRequest::Decode("").ok());
  EXPECT_FALSE(ServeRequest::Decode("submit =a").ok());
  EXPECT_FALSE(ServeRequest::Decode("submit key").ok());
  EXPECT_FALSE(ServeResponse::Decode("ok a=1 a=2").ok());
  // Numbers are strict: overflow and trailing junk are errors, not clamps.
  Result<ServeRequest> request =
      ServeRequest::Decode("submit gpus=99999999999999999999 io=1e999 n=5x t=1.5");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_FALSE(request->GetInt("gpus").ok());
  EXPECT_FALSE(request->GetDouble("io").ok());
  EXPECT_FALSE(request->GetInt("n").ok());
  EXPECT_FALSE(request->GetInt("t").ok());
  EXPECT_EQ(1.5, *request->GetDouble("t"));
}

// ---------------------------------------------------------------------------
// Plan digests.

TEST(PlanDigest, DistinguishesPlans) {
  AllocationPlan a;
  a.jobs[0].running = true;
  a.jobs[0].gpus = 2;
  AllocationPlan b = a;
  EXPECT_TRUE(PlansBitIdentical(a, b));
  EXPECT_EQ(PlanDigest(a), PlanDigest(b));
  b.jobs[0].gpus = 3;
  EXPECT_FALSE(PlansBitIdentical(a, b));
  EXPECT_NE(PlanDigest(a), PlanDigest(b));
}

// ---------------------------------------------------------------------------
// Service: request handling, admission edges, identity after any sequence.

ServiceConfig SmallCluster(const std::string& policy) {
  ServiceConfig config;
  config.policy = policy;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  config.resources.num_servers = 4;
  return config;
}

ServeRequest Req(const std::string& verb,
                 std::initializer_list<std::pair<const char*, std::string>> args) {
  ServeRequest request;
  request.verb = verb;
  for (const auto& [key, value] : args) {
    request.args[key] = value;
  }
  return request;
}

ServeRequest SubmitReq(const std::string& key, double t, int gpus, Bytes dataset_size) {
  return Req("submit", {{"key", key},
                        {"t", std::to_string(t)},
                        {"gpus", std::to_string(gpus)},
                        {"ideal-io", "100000000"},
                        {"total-bytes", "1000000000000"},
                        {"dataset", "ds-" + key},
                        {"dataset-size", std::to_string(dataset_size)}});
}

class ServiceTest : public ::testing::Test {
 protected:
  void Start(ServiceConfig config) {
    Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  ServeResponse Must(const ServeRequest& request) {
    ServeResponse response = service_->Handle(request);
    EXPECT_TRUE(response.ok()) << request.verb << ": " << response.error;
    return response;
  }

  // The identity anchor: the daemon's current plan must be bit-identical to
  // a fresh batch scheduler solving the daemon's own snapshot.
  void ExpectBatchIdentity() {
    Result<std::shared_ptr<Scheduler>> batch =
        MakeSchedulerByName(service_->policy_name(), SchedulerOptions{});
    ASSERT_TRUE(batch.ok());
    const Snapshot snapshot = service_->MakeSnapshot();
    const AllocationPlan expected = (*batch)->Schedule(snapshot);
    EXPECT_TRUE(PlansBitIdentical(service_->PlanNow(), expected))
        << "daemon plan diverged from batch " << service_->policy_name();
  }

  std::unique_ptr<ServiceState> service_;
};

TEST_F(ServiceTest, IdentityHoldsAfterAnySubmitCompleteCancelSequence) {
  for (const char* policy : {"fifo+silod", "sjf+silod", "gavel+silod", "fifo+coordl"}) {
    Start(SmallCluster(policy));
    Must(SubmitReq("a", 0, 2, GB(400)));
    ExpectBatchIdentity();
    Must(SubmitReq("b", 10, 1, GB(800)));
    Must(SubmitReq("c", 20, 4, TB(1.5)));
    ExpectBatchIdentity();
    Must(Req("progress", {{"key", "a"},
                          {"t", "100"},
                          {"remaining", "500000000000"},
                          {"effective", "50000000000"}}));
    ExpectBatchIdentity();
    Must(Req("complete", {{"key", "b"}, {"t", "200"}}));
    ExpectBatchIdentity();
    Must(SubmitReq("d", 250, 1, GB(200)));
    Must(Req("cancel", {{"key", "c"}, {"t", "300"}}));
    ExpectBatchIdentity();
  }
}

TEST_F(ServiceTest, AdmissionEdges) {
  ServiceConfig config = SmallCluster("fifo+silod");
  config.admission.max_gpu_load = 1.0;
  config.admission.max_queue = 1;
  Start(std::move(config));

  // Exactly at the threshold (8/8) admits.
  ServeResponse r1 = Must(SubmitReq("fills", 0, 8, GB(100)));
  EXPECT_EQ("admitted", r1.fields.at("decision"));

  // Strictly past it queues.
  ServeResponse r2 = Must(SubmitReq("queued", 1, 1, GB(100)));
  EXPECT_EQ("queued", r2.fields.at("decision"));

  // Queue full: rejected cleanly, key not burned.
  ServeResponse r3 = service_->Handle(SubmitReq("rejected", 2, 1, GB(100)));
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, r3.code);

  // Duplicate job id rejected cleanly without disturbing the original.
  ServeResponse dup = service_->Handle(SubmitReq("fills", 3, 1, GB(100)));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, dup.code);
  EXPECT_EQ("active", Must(Req("query", {{"key", "fills"}})).fields.at("state"));

  // Cancel of a queued (never-admitted) job works and leaves no trace in the
  // scheduler; the planner was never told about it.
  ServeResponse cancel = Must(Req("cancel", {{"key", "queued"}, {"t", "4"}}));
  EXPECT_EQ("cancelled", cancel.fields.at("state"));
  EXPECT_EQ("queued", cancel.fields.at("was"));
  EXPECT_EQ(0u, service_->jobs().CountState(ServeJobState::kQueued));

  // Completion frees load and promotes the next queued submission.
  ServeResponse r4 = Must(SubmitReq("waits", 5, 2, GB(100)));
  EXPECT_EQ("queued", r4.fields.at("decision"));
  Must(Req("complete", {{"key", "fills"}, {"t", "6"}}));
  EXPECT_EQ("active", Must(Req("query", {{"key", "waits"}})).fields.at("state"));
  ExpectBatchIdentity();
}

TEST_F(ServiceTest, EpochBatchingCoalescesArrivals) {
  ServiceConfig config = SmallCluster("fifo+silod");
  config.planning.min_replan_interval = 1000;  // Nothing is due by time.
  config.planning.max_coalesced_events = 3;    // ... until 3 marks coalesce.
  Start(std::move(config));
  Must(SubmitReq("a", 0, 1, GB(100)));  // The initial plan is always due.
  const std::uint64_t solves_after_first = service_->planner().full_solves();
  Must(SubmitReq("b", 1, 1, GB(100)));  // 1 pending event: coalesced.
  Must(SubmitReq("c", 2, 1, GB(100)));  // 2 pending events: coalesced.
  EXPECT_EQ(solves_after_first, service_->planner().full_solves());
  EXPECT_GE(service_->planner().reused_plans(), 2u);
  Must(SubmitReq("d", 3, 1, GB(100)));  // 3rd event forces the tick.
  EXPECT_EQ(solves_after_first + 1, service_->planner().full_solves());
  ExpectBatchIdentity();  // A forced plan flushes the rest.
}

TEST(ServicePlanning, RejectsNegativeOrNanReplanInterval) {
  for (const double interval : {-1.0, std::nan("")}) {
    PlanningOptions planning;
    planning.min_replan_interval = interval;
    Result<std::unique_ptr<IncrementalPlanner>> planner =
        IncrementalPlanner::Create("fifo+silod", SchedulerOptions{}, planning);
    ASSERT_FALSE(planner.ok()) << interval;
    EXPECT_EQ(StatusCode::kInvalidArgument, planner.status().code());
    ServiceConfig config = SmallCluster("fifo+silod");
    config.planning = planning;
    Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
    ASSERT_FALSE(service.ok()) << interval;
    EXPECT_EQ(StatusCode::kInvalidArgument, service.status().code());
  }
}

// Bad storage resources are refused at construction: a negative egress would
// otherwise abort the Gavel solve on the daemon's first submit.
TEST(ServiceConfigTest, RejectsNegativeOrNonFiniteStorageResources) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ClusterResources> bad;
  for (const double rate : {-1.0, nan, inf}) {
    ClusterResources r = SmallCluster("gavel+silod").resources;
    r.remote_io = rate;
    bad.push_back(r);
  }
  for (const double cap : {-5.0, nan}) {
    ClusterResources r = SmallCluster("gavel+silod").resources;
    r.per_job_remote_cap = cap;
    bad.push_back(r);
  }
  bad.push_back(SmallCluster("gavel+silod").resources);
  bad.back().total_cache = -1;
  for (const ClusterResources& resources : bad) {
    ServiceConfig config = SmallCluster("gavel+silod");
    config.resources = resources;
    Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, service.status().code());
  }

  // The tools' flag helper: same rules in flag units, 0 = no per-job cap,
  // and a refused value leaves the resources untouched.
  ClusterResources r;
  ASSERT_TRUE(SetStorageFromFlags(2, 1.6, 0, &r).ok());
  EXPECT_EQ(r.total_cache, TB(2));
  EXPECT_EQ(r.remote_io, Gbps(1.6));
  EXPECT_EQ(r.per_job_remote_cap, kUnlimitedRate);
  ASSERT_TRUE(SetStorageFromFlags(0, 0, 50, &r).ok());
  EXPECT_EQ(r.per_job_remote_cap, MBps(50));
  const ClusterResources before = r;
  for (const auto& [cache_tb, egress_gbps, cap_mbps] :
       std::vector<std::tuple<double, double, double>>{{-1, 1, 0},
                                                       {nan, 1, 0},
                                                       {inf, 1, 0},
                                                       {1, -1, 0},
                                                       {1, nan, 0},
                                                       {1, inf, 0},
                                                       {1, 1, -5},
                                                       {1, 1, nan}}) {
    const Status st = SetStorageFromFlags(cache_tb, egress_gbps, cap_mbps, &r);
    EXPECT_EQ(StatusCode::kInvalidArgument, st.code())
        << cache_tb << " " << egress_gbps << " " << cap_mbps;
    EXPECT_EQ(r.total_cache, before.total_cache);
    EXPECT_EQ(r.remote_io, before.remote_io);
    EXPECT_EQ(r.per_job_remote_cap, before.per_job_remote_cap);
  }

  // The edge values stay legal: a Gavel daemon with no cache and no egress
  // plans without aborting.
  ServiceConfig config = SmallCluster("gavel+silod");
  config.resources.total_cache = 0;
  config.resources.remote_io = 0;
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->Handle(SubmitReq("a", 0, 2, GB(400))).ok());
}

TEST_F(ServiceTest, ReloadPolicySwapsSchedulerAndCachePair) {
  Start(SmallCluster("fifo+silod"));
  Must(SubmitReq("a", 0, 1, GB(400)));
  Must(SubmitReq("b", 1, 1, GB(800)));
  EXPECT_EQ("fifo+silod", service_->policy_name());

  ServeResponse reload = Must(Req("reload-policy", {{"policy", "gavel+coordl"}}));
  EXPECT_EQ("gavel+coordl", reload.fields.at("policy"));
  const AllocationPlan& plan = service_->PlanNow();
  EXPECT_EQ(CacheModelKind::kPerJobStatic, plan.cache_model);

  // Unknown policies are rejected and the old one stays live.
  ServeResponse bad = service_->Handle(Req("reload-policy", {{"policy", "nope+silod"}}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ("gavel+coordl", service_->policy_name());

  ServeResponse back = Must(Req("reload-policy", {{"policy", "sjf+silod"}}));
  EXPECT_EQ("sjf+silod", back.fields.at("policy"));
  ExpectBatchIdentity();
}

TEST_F(ServiceTest, StatsAndQueryAndErrors) {
  Start(SmallCluster("fifo+silod"));
  Must(SubmitReq("a", 0, 2, GB(400)));
  ServeResponse stats = Must(Req("stats", {}));
  EXPECT_EQ("1", stats.fields.at("active"));
  EXPECT_EQ("2", stats.fields.at("gpu-demand"));
  EXPECT_EQ("fifo+silod", stats.fields.at("policy"));
  EXPECT_FALSE(service_->Handle(Req("query", {{"key", "nope"}})).ok());
  EXPECT_FALSE(service_->Handle(Req("frobnicate", {})).ok());
  EXPECT_FALSE(service_->Handle(Req("complete", {{"key", "a"}})).ok());  // No t.
  // Dataset interning: same name must agree on size.
  ServeResponse clash = service_->Handle(Req("submit", {{"key", "x"},
                                                        {"t", "1"},
                                                        {"gpus", "1"},
                                                        {"ideal-io", "1000"},
                                                        {"total-bytes", "1000"},
                                                        {"dataset", "ds-a"},
                                                        {"dataset-size", "12345"}}));
  EXPECT_FALSE(clash.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, clash.code);
}

// ---------------------------------------------------------------------------
// Trace replay cross-check (satellite: --serve-trace's engine).

TEST(ServeReplay, DaemonReportMatchesBatchEngine) {
  TraceOptions options;
  options.num_jobs = 12;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(20);
  options.seed = 5;
  const Trace trace = TraceGenerator(options).Generate();
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  for (const char* policy : {"fifo+silod", "sjf+silod"}) {
    Result<ReplayOutcome> outcome = ReplayTraceThroughService(
        trace, config, policy, SchedulerOptions{}, PlanningOptions{});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->jct_identical)
        << policy << "\nbatch:\n"
        << outcome->batch.ToJson() << "\nserve:\n"
        << outcome->serve.ToJson();
    EXPECT_EQ(0, outcome->serve.unfinished_jobs);
  }
}

// Heterogeneous fleet replay: the daemon must agree bit-for-bit with the
// typed batch engine — the submit verb round-trips tenants and per-type speed
// factors, the plans assign the same GPU types, and both reports carry the
// same per-tenant and per-GPU-type breakdowns.  A uniform (all speed 1.0)
// table must in turn match the untyped run exactly.
TEST(ServeReplay, TypedFleetReportMatchesBatchEngine) {
  TraceOptions options;
  options.num_jobs = 12;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(20);
  options.seed = 5;
  Trace trace = TraceGenerator(options).Generate();
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    trace.jobs[i].tenant = i % 2 == 0 ? "ads" : "search";
    if (i % 3 == 0) {
      trace.jobs[i].speed_factors = {{"k80", 0.8}};
    }
  }
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  Result<ClusterTopology> typed = ClusterTopology::Parse(
      "gpu-type name=v100 count=5 speed=1;gpu-type name=k80 count=3 speed=0.5");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.topology = *typed;
  Result<ReplayOutcome> outcome = ReplayTraceThroughService(
      trace, config, "sjf+silod", SchedulerOptions{}, PlanningOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->jct_identical)
      << "batch:\n" << outcome->batch.ToJson() << "\nserve:\n" << outcome->serve.ToJson();
  EXPECT_EQ(0, outcome->serve.unfinished_jobs);
  ASSERT_EQ(outcome->batch.tenants.size(), outcome->serve.tenants.size());
  ASSERT_EQ(outcome->batch.gpu_types.size(), outcome->serve.gpu_types.size());
  for (std::size_t i = 0; i < outcome->batch.gpu_types.size(); ++i) {
    EXPECT_EQ(outcome->batch.gpu_types[i].name, outcome->serve.gpu_types[i].name);
    EXPECT_EQ(outcome->batch.gpu_types[i].jct.finished,
              outcome->serve.gpu_types[i].jct.finished);
  }

  // Uniform table: the typed run collapses to the untyped one bit-for-bit.
  SimConfig untyped_config = config;
  untyped_config.topology = ClusterTopology();
  Result<ReplayOutcome> untyped = ReplayTraceThroughService(
      trace, untyped_config, "sjf+silod", SchedulerOptions{}, PlanningOptions{});
  ASSERT_TRUE(untyped.ok()) << untyped.status().ToString();
  SimConfig uniform_config = config;
  uniform_config.topology = *ClusterTopology::Parse("gpu-type name=any count=8 speed=1");
  Result<ReplayOutcome> uniform = ReplayTraceThroughService(
      trace, uniform_config, "sjf+silod", SchedulerOptions{}, PlanningOptions{});
  ASSERT_TRUE(uniform.ok()) << uniform.status().ToString();
  EXPECT_TRUE(JctSummariesIdentical(untyped->batch, uniform->batch));
  EXPECT_TRUE(JctSummariesIdentical(untyped->serve, uniform->serve));
}

// ---------------------------------------------------------------------------
// Socket transport.

TEST(UnixServer, ServesClientsUntilShutdown) {
  ServiceConfig config = SmallCluster("fifo+silod");
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
  ASSERT_TRUE(service.ok());
  const std::string path = ::testing::TempDir() + "/silodd_test.sock";
  UnixServer server(path, service->get());
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&server] { EXPECT_TRUE(server.Serve().ok()); });

  Result<ServeResponse> submit = CallServe(path, SubmitReq("a", 0, 1, GB(100)));
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  EXPECT_TRUE(submit->ok()) << submit->error;
  EXPECT_EQ("admitted", submit->fields.at("decision"));

  // A persistent client interleaved with one-shot clients.
  Result<ServeClient> client = ServeClient::Connect(path);
  ASSERT_TRUE(client.ok());
  Result<ServeResponse> stats = client->Call(Req("stats", {}));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ("1", stats->fields.at("active"));

  Result<ServeResponse> shutdown = client->Call(Req("shutdown", {}));
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(shutdown->ok());
  loop.join();
}

// A connected client whose server never answers must hit the --timeout-ms
// deadline instead of blocking forever: bind+listen without accept leaves
// the connect queued in the backlog (so Connect succeeds) and the read arm
// of Call trips SO_RCVTIMEO.
TEST(UnixServer, CallDeadlineFiresAgainstUnresponsivePeer) {
  const std::string path = ::testing::TempDir() + "/silodd_dead.sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(0, ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  ASSERT_EQ(0, ::listen(listener, 1));

  ClientOptions options;
  options.timeout_ms = 200;
  Result<ServeClient> client = ServeClient::Connect(path, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<ServeResponse> response = client->Call(Req("stats", {}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, response.status().code());

  close(listener);
  ::unlink(path.c_str());

  // A socket that does not exist at all fails fast, not via the deadline.
  EXPECT_FALSE(ServeClient::Connect(path, options).ok());
}

// ---------------------------------------------------------------------------
// Write-ahead journal (docs/MODEL.md §12): on-disk format, torn tails,
// compaction.

std::uint64_t FileSize(const std::string& path) {
  struct stat st;
  std::memset(&st, 0, sizeof(st));
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

void AppendRawBytes(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()), ::write(fd, bytes.data(), bytes.size()));
  close(fd);
}

void FlipByteAt(const std::string& path, std::uint64_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  std::uint8_t byte = 0;
  ASSERT_EQ(1, ::pread(fd, &byte, 1, static_cast<off_t>(offset)));
  byte ^= 0xFF;
  ASSERT_EQ(1, ::pwrite(fd, &byte, 1, static_cast<off_t>(offset)));
  close(fd);
}

std::string FreshJournalPath(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/journal_" + tag + ".wal";
  std::remove(path.c_str());
  return path;
}

JournalOptions JournalOpts(const std::string& path) {
  JournalOptions options;
  options.path = path;
  options.sync = JournalSyncMode::kAlways;
  return options;
}

std::unique_ptr<Journal> MustOpen(const JournalOptions& options, JournalScan* scan) {
  Result<std::unique_ptr<Journal>> journal = Journal::Open(options, scan);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return journal.ok() ? std::move(journal).value() : nullptr;
}

TEST(Journal, ParseSyncSpec) {
  JournalOptions options;
  ASSERT_TRUE(ParseJournalSyncSpec("always", &options).ok());
  EXPECT_EQ(JournalSyncMode::kAlways, options.sync);
  ASSERT_TRUE(ParseJournalSyncSpec("none", &options).ok());
  EXPECT_EQ(JournalSyncMode::kNone, options.sync);
  ASSERT_TRUE(ParseJournalSyncSpec("batch:8", &options).ok());
  EXPECT_EQ(JournalSyncMode::kBatch, options.sync);
  EXPECT_EQ(8u, options.batch_frames);
  EXPECT_FALSE(ParseJournalSyncSpec("batch:0", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("batch:x", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("batch:", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("sometimes", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("", &options).ok());
}

TEST(Journal, AppendAndReopenRoundTrip) {
  const std::string path = FreshJournalPath("roundtrip");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    EXPECT_EQ(0u, scan.records);
    ASSERT_TRUE(journal->AppendRequest("submit key=a t=0").ok());
    ASSERT_TRUE(journal->AppendRequest("submit key=b t=1").ok());
    ASSERT_TRUE(journal->AppendRequest("complete key=a t=5").ok());
  }
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  EXPECT_FALSE(scan.has_checkpoint);
  EXPECT_EQ(3u, scan.records);
  EXPECT_EQ(0u, scan.dropped_bytes);
  ASSERT_EQ(3u, scan.requests.size());
  EXPECT_EQ("submit key=a t=0", scan.requests[0]);
  EXPECT_EQ("complete key=a t=5", scan.requests[2]);
}

TEST(Journal, TornTailTruncatedOnOpenAndAppendsResume) {
  const std::string path = FreshJournalPath("torn");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest("alpha").ok());
    ASSERT_TRUE(journal->AppendRequest("beta").ok());
    ASSERT_TRUE(journal->AppendRequest("gamma").ok());
  }
  // Cut 3 bytes into gamma's record: a crash mid-append.
  const std::uint64_t full = FileSize(path);
  ASSERT_EQ(0, ::truncate(path.c_str(), static_cast<off_t>(full - 3)));
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_EQ(2u, scan.requests.size());
    EXPECT_EQ("beta", scan.requests[1]);
    EXPECT_GT(scan.dropped_bytes, 0u);
    // The torn bytes are gone from disk and appends land cleanly after them.
    ASSERT_TRUE(journal->AppendRequest("delta").ok());
  }
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  EXPECT_EQ(0u, scan.dropped_bytes);
  ASSERT_EQ(3u, scan.requests.size());
  EXPECT_EQ("delta", scan.requests[2]);
}

TEST(Journal, CrcCorruptionStopsTheScan) {
  const std::string path = FreshJournalPath("crc");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest("alpha").ok());
    ASSERT_TRUE(journal->AppendRequest("beta").ok());
    ASSERT_TRUE(journal->AppendRequest("gamma").ok());
  }
  // Flip a payload byte inside beta: its CRC fails, so beta AND everything
  // after it are treated as torn (the scan cannot trust record boundaries
  // past a corrupt record).
  const std::uint64_t alpha_size =
      EncodeJournalRecord(JournalRecordType::kRequest, "alpha").size();
  FlipByteAt(path, alpha_size + 4 + 4 + 1 + 1);  // len + crc + type + 1 byte in.
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  ASSERT_EQ(1u, scan.requests.size());
  EXPECT_EQ("alpha", scan.requests[0]);
  EXPECT_GT(scan.dropped_bytes, 0u);
  EXPECT_EQ(alpha_size, FileSize(path));
}

TEST(Journal, AbsurdLengthTailTreatedAsTorn) {
  const std::string path = FreshJournalPath("absurd");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest("alpha").ok());
  }
  std::uint8_t header[8];
  PutU32(header, 0xFFFFFFF0u);  // Way past kMaxJournalRecordBytes.
  PutU32(header + 4, 0);
  AppendRawBytes(path, std::string(reinterpret_cast<char*>(header), sizeof(header)));
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  ASSERT_EQ(1u, scan.requests.size());
  EXPECT_EQ(8u, scan.dropped_bytes);
}

TEST(Journal, CompactionReplacesTailWithCheckpoint) {
  const std::string path = FreshJournalPath("compact");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest(std::string(512, 'x')).ok());
    ASSERT_TRUE(journal->AppendRequest(std::string(512, 'y')).ok());
    const std::uint64_t before = journal->size_bytes();
    ASSERT_TRUE(journal->Compact("checkpoint payload").ok());
    EXPECT_LT(journal->size_bytes(), before);
    EXPECT_EQ(1u, journal->compactions());
    // Appends after compaction extend the compacted file.
    ASSERT_TRUE(journal->AppendRequest("after").ok());
  }
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  EXPECT_TRUE(scan.has_checkpoint);
  EXPECT_EQ("checkpoint payload", scan.checkpoint);
  ASSERT_EQ(1u, scan.requests.size());
  EXPECT_EQ("after", scan.requests[0]);
}

// ---------------------------------------------------------------------------
// Crash-safe service: recovery bit-identity, rid dedup, checkpoint verb,
// auto-compaction (docs/MODEL.md §12).

ServeRequest WithRid(ServeRequest request, std::uint64_t rid) {
  request.args["rid"] = std::to_string(rid);
  return request;
}

class ServiceJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = FreshJournalPath(::testing::UnitTest::GetInstance()->current_test_info()->name());
  }

  JournalOptions Opts() { return JournalOpts(path_); }

  std::unique_ptr<ServiceState> Recover(ServiceConfig config, const JournalOptions& options,
                                        RecoveryInfo* recovery) {
    Result<std::unique_ptr<ServiceState>> service =
        ServiceState::CreateFromJournal(std::move(config), options, recovery);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return service.ok() ? std::move(service).value() : nullptr;
  }

  ServeResponse Must(ServiceState* service, const ServeRequest& request) {
    ServeResponse response = service->Handle(request);
    EXPECT_TRUE(response.ok()) << request.verb << ": " << response.error;
    return response;
  }

  std::string path_;
};

TEST_F(ServiceJournalTest, RecoveryRebuildsStateBitIdentically) {
  std::uint64_t digest = 0;
  std::uint64_t plan_digest = 0;
  std::string report;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    EXPECT_FALSE(recovery.from_checkpoint);
    EXPECT_EQ(0u, recovery.replayed_requests);
    // Exercise every journaled verb class: submits, progress, a forced plan
    // (stamps first-start times), a completion, a policy hot-swap, a cancel.
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
    Must(service.get(), WithRid(Req("progress", {{"key", "a"},
                                                 {"t", "100"},
                                                 {"remaining", "500000000000"},
                                                 {"effective", "50000000000"}}),
                                3));
    Must(service.get(), WithRid(Req("plan", {{"t", "150"}}), 4));
    Must(service.get(), WithRid(Req("complete", {{"key", "b"}, {"t", "200"}}), 5));
    Must(service.get(), WithRid(Req("reload-policy", {{"policy", "fifo+silod"}}), 6));
    Must(service.get(), WithRid(SubmitReq("c", 250, 4, TB(1.5)), 7));
    Must(service.get(), WithRid(Req("cancel", {{"key", "c"}, {"t", "300"}}), 8));
    digest = service->StateDigest();
    plan_digest = PlanDigest(service->PlanNow());
    report = service->Report().ToJson();
    // SIGKILL: the service dies here without Sync or graceful teardown; the
    // kAlways journal already has every frame on disk.
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_EQ(8u, recovery.replayed_requests);
  EXPECT_EQ(0u, recovery.replayed_errors);
  EXPECT_EQ(0u, recovery.dropped_bytes);
  EXPECT_EQ(digest, service->StateDigest()) << "recovered state diverged";
  EXPECT_EQ(plan_digest, PlanDigest(service->PlanNow())) << "recovered plan diverged";
  EXPECT_EQ(report, service->Report().ToJson()) << "recovered report diverged";
  EXPECT_EQ("fifo+silod", service->policy_name());  // The hot-swap replayed.
}

TEST_F(ServiceJournalTest, RidDedupMakesRetriesExactlyOnce) {
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  const ServeRequest submit = WithRid(SubmitReq("a", 0, 2, GB(400)), 7);
  ServeResponse first = Must(service.get(), submit);
  EXPECT_EQ(0u, first.fields.count("duplicate"));
  const std::uint64_t digest = service->StateDigest();

  // The exact retry and a stale lower rid are both acknowledged without
  // touching state or the journal.
  for (const ServeRequest& retry : {submit, WithRid(Req("complete", {{"key", "a"}, {"t", "9"}}), 3)}) {
    ServeResponse response = Must(service.get(), retry);
    EXPECT_EQ("1", response.fields.at("duplicate"));
    EXPECT_EQ("7", response.fields.at("last-rid"));
  }
  EXPECT_EQ(digest, service->StateDigest());
  EXPECT_EQ(1u, service->journal()->appended_records());

  // Non-positive rids are rejected before touching the journal.
  EXPECT_FALSE(service->Handle(WithRid(SubmitReq("bad", 1, 1, GB(100)), 0)).ok());

  ServeResponse stats = Must(service.get(), Req("stats", {}));
  EXPECT_EQ("7", stats.fields.at("last-rid"));
  EXPECT_EQ("2", stats.fields.at("duplicates"));

  // Dedup state survives recovery: last_rid_ is rebuilt from the replayed
  // frames, so a client resending its in-flight request after a daemon
  // restart still gets the duplicate ack.
  service.reset();
  service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  ServeResponse after = Must(service.get(), submit);
  EXPECT_EQ("1", after.fields.at("duplicate"));
  EXPECT_EQ(digest, service->StateDigest());
}

TEST_F(ServiceJournalTest, CheckpointVerbCompactsAndRecoveryMatches) {
  std::uint64_t digest = 0;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
    Must(service.get(), WithRid(Req("complete", {{"key", "a"}, {"t", "50"}}), 3));
    ServeResponse checkpoint = Must(service.get(), Req("checkpoint", {}));
    EXPECT_EQ("1", checkpoint.fields.at("compactions"));
    // Mutations after the checkpoint land as request records behind it.
    Must(service.get(), WithRid(SubmitReq("c", 60, 1, GB(200)), 4));
    digest = service->StateDigest();
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(1u, recovery.replayed_requests);  // Only the post-checkpoint tail.
  EXPECT_EQ(digest, service->StateDigest());
  // And the recovered daemon keeps serving: rid 4 dedupes, rid 5 applies.
  ServeResponse dup = Must(service.get(), WithRid(SubmitReq("c", 60, 1, GB(200)), 4));
  EXPECT_EQ("1", dup.fields.at("duplicate"));
  Must(service.get(), WithRid(Req("complete", {{"key", "c"}, {"t", "100"}}), 5));
}

TEST_F(ServiceJournalTest, CheckpointWithoutJournalIsFailedPrecondition) {
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(SmallCluster("fifo+silod"));
  ASSERT_TRUE(service.ok());
  ServeResponse response = (*service)->Handle(Req("checkpoint", {}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, response.code);
}

TEST_F(ServiceJournalTest, AutoCompactionBoundsTheJournal) {
  JournalOptions options = Opts();
  options.max_bytes = 4096;  // Tiny cap: a few dozen submits overflow it.
  std::uint64_t digest = 0;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service =
        Recover(SmallCluster("fifo+silod"), options, &recovery);
    ASSERT_NE(nullptr, service);
    std::uint64_t rid = 0;
    for (int i = 0; i < 40; ++i) {
      const std::string key = "job" + std::to_string(i);
      Must(service.get(), WithRid(SubmitReq(key, i, 1, GB(100)), ++rid));
      Must(service.get(), WithRid(Req("complete", {{"key", key}, {"t", std::to_string(i + 40)}}),
                                  ++rid));
    }
    ASSERT_NE(nullptr, service->journal());
    EXPECT_GT(service->journal()->compactions(), 0u);
    // The file never grows unboundedly: it is at most the cap plus the tail
    // appended since the last checkpoint (itself < cap) plus one checkpoint.
    EXPECT_LT(service->journal()->size_bytes(), 10 * options.max_bytes);
    digest = service->StateDigest();
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), options, &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(digest, service->StateDigest());
}

ServiceConfig CoalescingCluster() {
  ServiceConfig config = SmallCluster("sjf+silod");
  config.planning.min_replan_interval = 1000;  // Nothing is due by time...
  config.planning.max_coalesced_events = 3;    // ... until 3 events coalesce.
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Feeds `tail` to both services, requiring the same state digest after each
// request and the same solve/reuse decisions over the whole tail.
void ExpectSameTail(ServiceState* live, ServiceState* recovered,
                    const std::vector<ServeRequest>& tail) {
  const std::uint64_t live_solves = live->planner().full_solves();
  const std::uint64_t live_reused = live->planner().reused_plans();
  const std::uint64_t recovered_solves = recovered->planner().full_solves();
  const std::uint64_t recovered_reused = recovered->planner().reused_plans();
  for (const ServeRequest& request : tail) {
    const ServeResponse a = live->Handle(request);
    const ServeResponse b = recovered->Handle(request);
    EXPECT_TRUE(a.ok()) << request.verb << ": " << a.error;
    EXPECT_EQ(a.fields, b.fields) << request.verb;
    EXPECT_EQ(live->StateDigest(), recovered->StateDigest()) << "after " << request.Encode();
  }
  EXPECT_EQ(live->planner().full_solves() - live_solves,
            recovered->planner().full_solves() - recovered_solves);
  EXPECT_EQ(live->planner().reused_plans() - live_reused,
            recovered->planner().reused_plans() - recovered_reused);
  EXPECT_EQ(PlanDigest(live->PlanNow()), PlanDigest(recovered->PlanNow()));
  EXPECT_EQ(live->StateDigest(), recovered->StateDigest());
}

// A checkpoint taken while coalesced events are pending must restore the
// epoch: the recovered daemon reuses its plan exactly where the uninterrupted
// one does, rather than re-solving at its first event.
TEST_F(ServiceJournalTest, CoalescedRecoveryMatchesUninterruptedRun) {
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> live = Recover(CoalescingCluster(), Opts(), &recovery);
  ASSERT_NE(nullptr, live);
  Must(live.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));   // Initial solve.
  Must(live.get(), WithRid(SubmitReq("b", 10, 4, GB(800)), 2));  // 1 pending, b waits.
  EXPECT_EQ("1", Must(live.get(), Req("stats", {})).fields.at("dirty-pending"));
  EXPECT_EQ("0", Must(live.get(), Req("query", {{"key", "b"}})).fields.at("running"));
  Must(live.get(), Req("checkpoint", {}));

  // The crash copy: the journal as the checkpoint left it.
  const std::string copy = path_ + ".copy";
  std::ofstream(copy, std::ios::binary) << ReadFile(path_);
  std::unique_ptr<ServiceState> recovered =
      Recover(CoalescingCluster(), JournalOpts(copy), &recovery);
  ASSERT_NE(nullptr, recovered);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(0u, recovery.replayed_requests);
  EXPECT_EQ(live->StateDigest(), recovered->StateDigest());

  ExpectSameTail(live.get(), recovered.get(),
                 {WithRid(Req("progress", {{"key", "a"},
                                           {"t", "20"},
                                           {"remaining", "500000000000"},
                                           {"effective", "50000000000"}}),
                          3),                                     // 2 pending: reuse.
                  WithRid(SubmitReq("c", 30, 1, GB(200)), 4),     // 3rd event: solve.
                  WithRid(SubmitReq("d", 40, 1, GB(100)), 5),     // 1 pending: reuse.
                  WithRid(Req("cancel", {{"key", "b"}, {"t", "50"}}), 6),
                  WithRid(SubmitReq("e", 2000, 2, GB(300)), 7),   // Interval elapsed.
                  WithRid(Req("complete", {{"key", "c"}, {"t", "2100"}}), 8)});
  std::remove(copy.c_str());
}

// With no events pending at the checkpoint, the first plan read after
// recovery is served from the cache, so the restore must rebuild it.
TEST_F(ServiceJournalTest, RecoveredPlanServedBeforeAnyEvent) {
  std::uint64_t plan_digest = 0;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
    Must(service.get(), Req("checkpoint", {}));
    ASSERT_EQ(0u, service->planner().pending_events());
    plan_digest = PlanDigest(service->PlanNow());
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_TRUE(recovery.from_checkpoint);
  const ServeResponse plan = Must(service.get(), Req("plan", {}));
  EXPECT_EQ(0u, service->planner().full_solves());  // Served, not re-solved.
  EXPECT_EQ(plan_digest, PlanDigest(service->planner().plan()));
  EXPECT_EQ("2", plan.fields.at("running"));
}

// Checkpoints written before the planner line shrank to last-plan-t and
// dirty-events still carry dirty-all/-reason/-jobs/-datasets; they restore
// to the same epoch.
TEST_F(ServiceJournalTest, RestoresOlderPlannerLine) {
  Result<std::unique_ptr<ServiceState>> live = ServiceState::Create(CoalescingCluster());
  ASSERT_TRUE(live.ok());
  Must(live->get(), SubmitReq("a", 0, 2, GB(400)));
  Must(live->get(), SubmitReq("b", 10, 4, GB(800)));
  std::string text = (*live)->CheckpointText();
  const std::string current = "planner last-plan-t=0 dirty-events=1\n";
  const std::size_t at = text.find(current);
  ASSERT_NE(std::string::npos, at) << text;
  text.replace(at, current.size(),
               "planner last-plan-t=0 dirty-all=0 dirty-reason= dirty-events=1 dirty-jobs=1 "
               "dirty-datasets=\n");

  Result<std::unique_ptr<ServiceState>> restored = ServiceState::Create(CoalescingCluster());
  ASSERT_TRUE(restored.ok());
  const Status st = (*restored)->RestoreFromCheckpoint(text, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(0.0, (*restored)->planner().last_plan_time());
  EXPECT_EQ(1u, (*restored)->planner().pending_events());
  ExpectSameTail(live->get(), restored->get(),
                 {SubmitReq("c", 20, 1, GB(200)),     // 2 pending: reuse.
                  SubmitReq("d", 30, 1, GB(100))});   // 3rd event: solve.
}

TEST_F(ServiceJournalTest, TornTailRecoveryDropsOnlyTheTornFrame) {
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
  }
  // Tear mid-way into b's record: the crash happened inside the append.
  ASSERT_EQ(0, ::truncate(path_.c_str(), static_cast<off_t>(FileSize(path_) - 2)));
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_EQ(1u, recovery.replayed_requests);
  EXPECT_GT(recovery.dropped_bytes, 0u);
  EXPECT_EQ(1u, service->jobs().size());
  // The client's retry of the lost frame applies normally (rid 2 was never
  // durable, so it is NOT a duplicate).
  ServeResponse retry = Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
  EXPECT_EQ(0u, retry.fields.count("duplicate"));
  EXPECT_EQ(2u, service->jobs().size());
}

// The acceptance scenario in-process: SIGKILL mid-trace, restart, re-replay
// the whole trace with monotone rids — the final report must match the batch
// flow engine bit-for-bit (the already-applied prefix dedupes).
TEST(ServeReplay, CrashMidTraceRecoveryMatchesBatchEngine) {
  TraceOptions options;
  options.num_jobs = 10;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(20);
  options.seed = 11;
  const Trace trace = TraceGenerator(options).Generate();
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  Result<std::shared_ptr<Scheduler>> scheduler =
      MakeSchedulerByName("sjf+silod", SchedulerOptions{});
  ASSERT_TRUE(scheduler.ok());
  FlowEngine engine(&trace, *scheduler, config);
  const SimResult result = engine.Run();
  const std::vector<ReplayEvent> schedule = BuildReplaySchedule(trace, result);

  ServiceConfig service_config;
  service_config.policy = "sjf+silod";
  service_config.resources = config.resources;
  service_config.admission.max_gpu_load = 1e18;  // Engines have no gate.
  JournalOptions journal_options;
  journal_options.path = FreshJournalPath("crash_mid_trace");
  journal_options.sync = JournalSyncMode::kBatch;  // write()n data survives SIGKILL.
  journal_options.batch_frames = 4;

  const std::size_t half = schedule.size() / 2;
  {
    RecoveryInfo recovery;
    Result<std::unique_ptr<ServiceState>> service =
        ServiceState::CreateFromJournal(service_config, journal_options, &recovery);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (std::size_t i = 0; i < half; ++i) {
      const ReplayEvent& event = schedule[i];
      const ServeRequest request =
          event.complete ? CompleteRequestFor(trace, event.job, event.t, i + 1)
                         : SubmitRequestFor(trace, event.job, event.t, i + 1);
      const ServeResponse response = (*service)->Handle(request);
      ASSERT_TRUE(response.ok()) << request.verb << ": " << response.error;
    }
    // SIGKILL here: no Sync, no destructor grace.
  }
  RecoveryInfo recovery;
  Result<std::unique_ptr<ServiceState>> service =
      ServiceState::CreateFromJournal(service_config, journal_options, &recovery);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(half, recovery.replayed_requests);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ReplayEvent& event = schedule[i];
    const ServeRequest request =
        event.complete ? CompleteRequestFor(trace, event.job, event.t, i + 1)
                       : SubmitRequestFor(trace, event.job, event.t, i + 1);
    const ServeResponse response = (*service)->Handle(request);
    ASSERT_TRUE(response.ok()) << request.verb << ": " << response.error;
    if (i < half) {
      EXPECT_EQ("1", response.fields.at("duplicate")) << "event " << i;
    }
  }
  const RunReport batch = MakeRunReport("sjf+silod", "flow", result);
  const RunReport serve = (*service)->Report();
  EXPECT_TRUE(JctSummariesIdentical(batch, serve))
      << "batch:\n"
      << batch.ToJson() << "\nserve:\n"
      << serve.ToJson();
  EXPECT_EQ(0, serve.unfinished_jobs);
}

}  // namespace
}  // namespace silod
