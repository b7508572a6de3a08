#include "src/fault/fault_plan.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <string_view>

#include "src/common/rng.h"
#include "src/common/text_codec.h"

namespace silod {
namespace {

struct EventSpec {
  Seconds t = -1;
  int server = -1;
  int job = -1;
  double factor = 1.0;
  double err = 0.0;
  Seconds down = 0;     // server-crash / zone-crash outage length.
  Seconds dur = 0;      // degrade window length ("for=").
  Seconds restart = 60; // worker-crash restart delay.
  Seconds stagger = 0;  // zone-crash per-member recovery stagger.
  std::string name;     // zone declaration name.
  std::string zone;     // zone-crash target zone.
  std::string anchor;   // degrade anchored to a zone's recovery instant.
  int servers_lo = -1;  // zone declaration range, inclusive.
  int servers_hi = -1;
};

// Parses "a-b" (inclusive integer range) into lo/hi.
Status ParseServerRange(const std::string& raw, int* lo, int* hi) {
  const std::size_t dash = raw.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= raw.size()) {
    return Status::InvalidArgument("zone servers= wants a range a-b, got: " + raw);
  }
  const Result<std::int64_t> first = ParseInt(std::string_view(raw).substr(0, dash), 0, INT_MAX);
  const Result<std::int64_t> last = ParseInt(std::string_view(raw).substr(dash + 1), 0, INT_MAX);
  if (!first.ok() || !last.ok()) {
    return Status::InvalidArgument("zone servers= wants a range a-b, got: " + raw);
  }
  *lo = static_cast<int>(*first);
  *hi = static_cast<int>(*last);
  if (*hi < *lo) {
    return Status::InvalidArgument("zone servers= range is empty: " + raw);
  }
  return Status::Ok();
}

Status ParseKeyValue(const std::string& token, EventSpec* spec) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("fault event token is not key=value: " + token);
  }
  const std::string key = token.substr(0, eq);
  const std::string raw = token.substr(eq + 1);
  // String-valued keys first; everything else is numeric.
  if (key == "name") {
    spec->name = raw;
    return Status::Ok();
  }
  if (key == "zone") {
    spec->zone = raw;
    return Status::Ok();
  }
  if (key == "anchor") {
    spec->anchor = raw;
    return Status::Ok();
  }
  if (key == "servers") {
    return ParseServerRange(raw, &spec->servers_lo, &spec->servers_hi);
  }
  if (key == "server" || key == "job") {
    const Result<std::int64_t> id = ParseInt(raw, INT_MIN, INT_MAX);
    if (!id.ok()) {
      return Status::InvalidArgument("bad fault " + key + " id: " + token);
    }
    (key == "server" ? spec->server : spec->job) = static_cast<int>(*id);
    return Status::Ok();
  }
  const Result<double> parsed = ParseDouble(raw);
  if (!parsed.ok() || !std::isfinite(*parsed)) {
    return Status::InvalidArgument("bad fault value: " + token);
  }
  const double value = *parsed;
  if (key == "t") {
    spec->t = value;
  } else if (key == "factor") {
    spec->factor = value;
  } else if (key == "err") {
    spec->err = value;
  } else if (key == "down") {
    spec->down = value;
  } else if (key == "for") {
    spec->dur = value;
  } else if (key == "restart") {
    spec->restart = value;
  } else if (key == "stagger") {
    spec->stagger = value;
  } else {
    return Status::InvalidArgument("unknown fault key: " + key);
  }
  return Status::Ok();
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCacheServerCrash:
      return "server-crash";
    case FaultKind::kCacheServerRecover:
      return "server-recover";
    case FaultKind::kRemoteDegrade:
      return "degrade";
    case FaultKind::kWorkerCrash:
      return "worker-crash";
    case FaultKind::kWorkerRestart:
      return "worker-restart";
    case FaultKind::kDataManagerRestart:
      return "dm-restart";
  }
  return "unknown";
}

void FaultPlan::Sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
}

std::string FaultPlan::ToSpec() const {
  std::string out;
  for (const FaultEvent& e : events) {
    if (!out.empty()) {
      out += "; ";
    }
    out += FaultKindName(e.kind);
    out += " t=" + FormatShortest(e.time);
    switch (e.kind) {
      case FaultKind::kCacheServerCrash:
      case FaultKind::kCacheServerRecover:
        out += " server=" + std::to_string(e.target);
        break;
      case FaultKind::kWorkerCrash:
        // Expanded plans carry restarts as explicit events; suppress the
        // default re-expansion or Parse(ToSpec()) would grow a phantom one.
        out += " job=" + std::to_string(e.target) + " restart=0";
        break;
      case FaultKind::kWorkerRestart:
        out += " job=" + std::to_string(e.target);
        break;
      case FaultKind::kRemoteDegrade:
        out += " factor=" + FormatShortest(e.severity) + " err=" + FormatShortest(e.error_rate);
        break;
      case FaultKind::kDataManagerRestart:
        break;
    }
  }
  return out;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& spec,
                                   std::vector<TopologyZone>* zones_out) {
  FaultPlan plan;
  if (zones_out != nullptr) {
    zones_out->clear();
  }
  // Zones declared earlier in the spec, and the first recovery instant of
  // each zone's most recent zone-crash (for anchored degrades).
  std::map<std::string, FaultZone> zones;
  std::map<std::string, Seconds> recovery_base;
  for (const std::string_view segment : SplitList(spec, ';')) {
    const std::vector<std::string_view> tokens = SplitTokens(segment);
    if (tokens.empty()) {
      continue;  // Empty segment (trailing semicolon).
    }
    const std::string event_text(segment);
    const std::string kind_name(tokens[0]);
    EventSpec s;
    // worker-crash expands with a paired restart by default; explicit
    // restart=0 keeps the worker down for good.
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (const Status st = ParseKeyValue(std::string(tokens[i]), &s); !st.ok()) {
        return st;
      }
    }

    if (kind_name == "zone") {
      // Declaration, not an event: no t=.
      if (s.name.empty() || s.servers_lo < 0) {
        return Status::InvalidArgument("zone wants name= and servers=a-b: " + event_text);
      }
      if (zones.count(s.name)) {
        return Status::InvalidArgument("zone declared twice: " + s.name);
      }
      zones[s.name] = FaultZone{s.name, s.servers_lo, s.servers_hi};
      if (zones_out != nullptr) {
        zones_out->push_back(zones[s.name]);
      }
      continue;
    }
    if (kind_name == "zone-crash") {
      if (s.t < 0) {
        return Status::InvalidArgument("fault event missing t=: " + event_text);
      }
      const auto it = zones.find(s.zone);
      if (it == zones.end()) {
        return Status::InvalidArgument("zone-crash names undeclared zone: " + event_text);
      }
      const FaultZone& zone = it->second;
      for (int i = 0; i < zone.size(); ++i) {
        FaultEvent crash;
        crash.time = s.t;  // The whole domain goes down at one timestamp.
        crash.kind = FaultKind::kCacheServerCrash;
        crash.target = zone.first_server + i;
        plan.events.push_back(crash);
        if (s.down > 0) {
          FaultEvent recover = crash;
          recover.kind = FaultKind::kCacheServerRecover;
          recover.time = s.t + s.down + i * s.stagger;
          plan.events.push_back(recover);
        }
      }
      if (s.down > 0) {
        recovery_base[zone.name] = s.t + s.down;
      }
      continue;
    }
    const bool anchored = kind_name == "degrade" && !s.anchor.empty();
    if (anchored) {
      const auto it = recovery_base.find(s.anchor);
      if (it == recovery_base.end()) {
        return Status::InvalidArgument(
            "degrade anchor= wants a prior zone-crash with down>0 for zone '" + s.anchor +
            "': " + event_text);
      }
      // t= is an offset from the anchor zone's first recovery instant
      // (default 0): refill traffic lands inside the degraded window.
      s.t = it->second + std::max<Seconds>(0, s.t);
    }
    if (s.t < 0) {
      return Status::InvalidArgument("fault event missing t=: " + event_text);
    }

    FaultEvent e;
    e.time = s.t;
    if (kind_name == "server-crash" || kind_name == "server-recover") {
      if (s.server < 0) {
        return Status::InvalidArgument("server event missing server=: " + event_text);
      }
      e.kind = kind_name == "server-crash" ? FaultKind::kCacheServerCrash
                                           : FaultKind::kCacheServerRecover;
      e.target = s.server;
      plan.events.push_back(e);
      if (e.kind == FaultKind::kCacheServerCrash && s.down > 0) {
        FaultEvent recover = e;
        recover.kind = FaultKind::kCacheServerRecover;
        recover.time = s.t + s.down;
        plan.events.push_back(recover);
      }
    } else if (kind_name == "degrade") {
      if (s.factor <= 0 || s.factor > 1) {
        return Status::InvalidArgument("degrade factor must be in (0, 1]: " + event_text);
      }
      if (s.err < 0 || s.err >= 1) {
        return Status::InvalidArgument("degrade err must be in [0, 1): " + event_text);
      }
      e.kind = FaultKind::kRemoteDegrade;
      e.severity = s.factor;
      e.error_rate = s.err;
      plan.events.push_back(e);
      if (s.dur > 0) {
        FaultEvent restore;
        restore.kind = FaultKind::kRemoteDegrade;
        restore.time = s.t + s.dur;
        plan.events.push_back(restore);  // factor=1, err=0 defaults.
      }
    } else if (kind_name == "worker-crash" || kind_name == "worker-restart") {
      if (s.job < 0) {
        return Status::InvalidArgument("worker event missing job=: " + event_text);
      }
      e.kind = kind_name == "worker-crash" ? FaultKind::kWorkerCrash
                                           : FaultKind::kWorkerRestart;
      e.target = s.job;
      plan.events.push_back(e);
      if (e.kind == FaultKind::kWorkerCrash && s.restart > 0) {
        FaultEvent restart = e;
        restart.kind = FaultKind::kWorkerRestart;
        restart.time = s.t + s.restart;
        plan.events.push_back(restart);
      }
    } else if (kind_name == "dm-restart") {
      e.kind = FaultKind::kDataManagerRestart;
      plan.events.push_back(e);
    } else {
      return Status::InvalidArgument("unknown fault kind: " + kind_name);
    }
  }
  plan.Sort();
  return plan;
}

FaultPlan GenerateFaultPlan(const FaultChurnOptions& options) {
  FaultPlan plan;
  Rng rng(options.seed ^ 0xFA171ULL);

  // Poisson arrivals per category: exponential interarrivals at the given
  // hourly rate until the horizon.  Each category forks its own stream so
  // raising one rate does not perturb the others' event times.
  auto arrivals = [&](double per_hour, Rng stream) {
    std::vector<Seconds> times;
    if (per_hour <= 0) {
      return times;
    }
    const double rate_per_sec = per_hour / 3600.0;
    Seconds t = stream.Exponential(rate_per_sec);
    while (t < options.horizon) {
      times.push_back(t);
      t += stream.Exponential(rate_per_sec);
    }
    return times;
  };

  Rng server_stream = rng.Fork();
  Rng worker_stream = rng.Fork();
  Rng degrade_stream = rng.Fork();
  Rng dm_stream = rng.Fork();

  for (const Seconds t : arrivals(options.server_crashes_per_hour, server_stream.Fork())) {
    FaultEvent crash;
    crash.time = t;
    crash.kind = FaultKind::kCacheServerCrash;
    crash.target =
        static_cast<int>(server_stream.NextBelow(static_cast<std::uint64_t>(
            std::max(1, options.num_servers))));
    plan.events.push_back(crash);
    FaultEvent recover = crash;
    recover.kind = FaultKind::kCacheServerRecover;
    recover.time = t + std::max<Seconds>(1.0, options.mean_server_downtime);
    plan.events.push_back(recover);
  }
  for (const Seconds t : arrivals(options.worker_crashes_per_hour, worker_stream.Fork())) {
    FaultEvent crash;
    crash.time = t;
    crash.kind = FaultKind::kWorkerCrash;
    crash.target = static_cast<int>(
        worker_stream.NextBelow(static_cast<std::uint64_t>(std::max(1, options.num_jobs))));
    plan.events.push_back(crash);
    FaultEvent restart = crash;
    restart.kind = FaultKind::kWorkerRestart;
    restart.time = t + std::max<Seconds>(1.0, options.worker_restart_delay);
    plan.events.push_back(restart);
  }
  for (const Seconds t : arrivals(options.degrade_windows_per_hour, degrade_stream.Fork())) {
    FaultEvent degrade;
    degrade.time = t;
    degrade.kind = FaultKind::kRemoteDegrade;
    degrade.severity = options.degrade_factor;
    degrade.error_rate = options.degrade_error_rate;
    plan.events.push_back(degrade);
    FaultEvent restore;
    restore.time = t + std::max<Seconds>(1.0, options.degrade_duration);
    restore.kind = FaultKind::kRemoteDegrade;
    plan.events.push_back(restore);
  }
  for (const Seconds t : arrivals(options.dm_restarts_per_hour, dm_stream.Fork())) {
    FaultEvent restart;
    restart.time = t;
    restart.kind = FaultKind::kDataManagerRestart;
    plan.events.push_back(restart);
  }

  // Correlation mode: each zone draws from its own stream forked off a zone
  // master (itself forked after the four independent categories, so adding
  // zones never perturbs the independent streams).  Forks happen for every
  // zone up front, in declaration order, so changing one zone's rate leaves
  // every other zone's event times untouched.
  Rng zone_master = rng.Fork();
  std::vector<Rng> zone_streams;
  zone_streams.reserve(options.zones.size());
  for (std::size_t i = 0; i < options.zones.size(); ++i) {
    zone_streams.push_back(zone_master.Fork());
  }
  for (std::size_t z = 0; z < options.zones.size(); ++z) {
    const ZoneChurn& churn = options.zones[z];
    for (const Seconds t : arrivals(churn.crashes_per_hour, zone_streams[z].Fork())) {
      const Seconds down = std::max<Seconds>(1.0, churn.downtime);
      for (int i = 0; i < churn.zone.size(); ++i) {
        FaultEvent crash;
        crash.time = t;
        crash.kind = FaultKind::kCacheServerCrash;
        crash.target = churn.zone.first_server + i;
        plan.events.push_back(crash);
        FaultEvent recover = crash;
        recover.kind = FaultKind::kCacheServerRecover;
        recover.time = t + down + i * std::max<Seconds>(0, churn.recovery_stagger);
        plan.events.push_back(recover);
      }
      if (churn.recovery_degrade_factor < 1.0) {
        // Anchored degrade: refill traffic after recovery meets a degraded
        // remote store.
        FaultEvent open;
        open.time = t + down;
        open.kind = FaultKind::kRemoteDegrade;
        open.severity = churn.recovery_degrade_factor;
        open.error_rate = churn.recovery_degrade_error_rate;
        plan.events.push_back(open);
        FaultEvent close;
        close.time = open.time + std::max<Seconds>(1.0, churn.recovery_degrade_duration);
        close.kind = FaultKind::kRemoteDegrade;
        plan.events.push_back(close);
      }
    }
  }

  plan.Sort();
  return plan;
}

Result<std::vector<ZoneChurn>> ParseZoneChurnSpec(const std::string& spec) {
  std::vector<ZoneChurn> zones;
  for (const std::string_view zone_text : SplitList(spec, ';')) {
    if (zone_text.find_first_not_of(" \t") == std::string_view::npos) {
      continue;  // Empty segment (trailing semicolon).
    }
    ZoneChurn churn;
    bool has_name = false;
    bool has_range = false;
    for (const std::string_view piece : SplitList(zone_text, ':')) {
      // Trim surrounding spaces.
      const std::size_t begin = piece.find_first_not_of(" \t");
      if (begin == std::string_view::npos) {
        continue;
      }
      const std::string field(piece.substr(begin, piece.find_last_not_of(" \t") - begin + 1));
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("zone field is not key=value: " + field);
      }
      const std::string key = field.substr(0, eq);
      const std::string raw = field.substr(eq + 1);
      if (key == "zone") {
        churn.zone.name = raw;
        has_name = true;
        continue;
      }
      if (key == "servers") {
        if (const Status st =
                ParseServerRange(raw, &churn.zone.first_server, &churn.zone.last_server);
            !st.ok()) {
          return st;
        }
        has_range = true;
        continue;
      }
      const Result<double> parsed = ParseDouble(raw);
      if (!parsed.ok() || !std::isfinite(*parsed)) {
        return Status::InvalidArgument("bad zone value: " + field);
      }
      const double value = *parsed;
      if (key == "crashes-per-hour") {
        churn.crashes_per_hour = value;
      } else if (key == "down") {
        churn.downtime = value;
      } else if (key == "stagger") {
        churn.recovery_stagger = value;
      } else if (key == "degrade-factor") {
        if (value <= 0 || value > 1) {
          return Status::InvalidArgument("degrade-factor must be in (0, 1]: " + field);
        }
        churn.recovery_degrade_factor = value;
      } else if (key == "degrade-err") {
        if (value < 0 || value >= 1) {
          return Status::InvalidArgument("degrade-err must be in [0, 1): " + field);
        }
        churn.recovery_degrade_error_rate = value;
      } else if (key == "degrade-for") {
        churn.recovery_degrade_duration = value;
      } else {
        return Status::InvalidArgument("unknown zone key: " + key);
      }
    }
    if (!has_name || !has_range) {
      return Status::InvalidArgument("zone spec wants zone=<name> and servers=<a>-<b>: " +
                                     std::string(zone_text));
    }
    zones.push_back(std::move(churn));
  }
  return zones;
}

}  // namespace silod
