#include "src/chaos/campaign.h"

#include <algorithm>
#include <charconv>

#include "src/chaos/watchdog.h"

namespace o1mem {

namespace {

// Consumes a decimal integer from the front of `s`; kInvalidArgument when
// there is none.
Result<uint64_t> EatInt(std::string_view& s) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr == s.data()) {
    return Status(StatusCode::kInvalidArgument,
                  "campaign: expected integer at '" + std::string(s) + "'");
  }
  s.remove_prefix(static_cast<size_t>(ptr - s.data()));
  return value;
}

// Consumes ":S" (S decimal or 'r'); -1 means random-at-fire-time.
Result<int> EatShard(std::string_view& s) {
  if (s.empty() || s.front() != ':') {
    return -1;
  }
  s.remove_prefix(1);
  if (!s.empty() && s.front() == 'r') {
    s.remove_prefix(1);
    return -1;
  }
  auto v = EatInt(s);
  O1_RETURN_IF_ERROR(v.status());
  return static_cast<int>(*v);
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

Result<ChaosAction> ParseAction(std::string_view item) {
  ChaosAction action;
  const size_t at = item.find('@');
  if (at == std::string_view::npos) {
    return Status(StatusCode::kInvalidArgument,
                  "campaign: missing '@' in '" + std::string(item) + "'");
  }
  const std::string_view verb = item.substr(0, at);
  std::string_view rest = item.substr(at + 1);

  if (verb == "kill" || verb == "hang" || verb == "poison" || verb == "poisondram" ||
      verb == "crash") {
    if (verb == "poison" && rest.substr(0, 5) == "every") {
      rest.remove_prefix(5);
      auto period = EatInt(rest);
      O1_RETURN_IF_ERROR(period.status());
      if (*period == 0) {
        return Status(StatusCode::kInvalidArgument, "campaign: poison@every0");
      }
      action.every_ticks = *period;
      action.at_tick = *period;  // first firing after one full period
    } else {
      auto tick = EatInt(rest);
      O1_RETURN_IF_ERROR(tick.status());
      action.at_tick = *tick;
    }
    if (verb == "kill") {
      action.kind = ChaosKind::kKillShard;
      auto shard = EatShard(rest);
      O1_RETURN_IF_ERROR(shard.status());
      action.shard = *shard;
    } else if (verb == "hang") {
      action.kind = ChaosKind::kHangShard;
      auto shard = EatShard(rest);
      O1_RETURN_IF_ERROR(shard.status());
      action.shard = *shard;
      if (rest.empty() || rest.front() != 'x') {
        return Status(StatusCode::kInvalidArgument,
                      "campaign: hang needs 'xH' duration in '" + std::string(item) + "'");
      }
      rest.remove_prefix(1);
      auto dur = EatInt(rest);
      O1_RETURN_IF_ERROR(dur.status());
      action.duration_ticks = *dur;
    } else if (verb == "poison" || verb == "poisondram") {
      action.kind = verb == "poison" ? ChaosKind::kPoisonNvm : ChaosKind::kPoisonDram;
      auto shard = EatShard(rest);
      O1_RETURN_IF_ERROR(shard.status());
      action.shard = *shard;
      if (!rest.empty() && rest.front() == '!') {
        rest.remove_prefix(1);
        action.sticky = true;
      }
    } else {
      action.kind = ChaosKind::kCrashMachine;
    }
  } else if (verb == "tornwrite" || verb == "tornflush") {
    action.kind =
        verb == "tornwrite" ? ChaosKind::kTornWriteCrash : ChaosKind::kTornFlushCrash;
    auto index = EatInt(rest);
    O1_RETURN_IF_ERROR(index.status());
    action.event_index = *index;
    action.at_tick = 0;  // armed at campaign start; fires when the event hits
  } else {
    return Status(StatusCode::kInvalidArgument,
                  "campaign: unknown action '" + std::string(verb) + "'");
  }
  if (!rest.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "campaign: trailing junk '" + std::string(rest) + "' in '" +
                      std::string(item) + "'");
  }
  return action;
}

}  // namespace

const char* ChaosKindName(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kKillShard:
      return "kill";
    case ChaosKind::kHangShard:
      return "hang";
    case ChaosKind::kPoisonNvm:
      return "poison";
    case ChaosKind::kPoisonDram:
      return "poisondram";
    case ChaosKind::kCrashMachine:
      return "crash";
    case ChaosKind::kTornWriteCrash:
      return "tornwrite";
    case ChaosKind::kTornFlushCrash:
      return "tornflush";
  }
  return "?";
}

Result<ChaosConfig> ParseCampaign(std::string_view spec, uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t semi = std::min(spec.find(';', pos), spec.size());
    const std::string_view item = Trim(spec.substr(pos, semi - pos));
    pos = semi + 1;
    if (item.empty()) {
      continue;
    }
    auto action = ParseAction(item);
    O1_RETURN_IF_ERROR(action.status());
    config.schedule.push_back(*action);
  }
  return config;
}

std::string DefaultCampaignSpec(uint64_t ticks) {
  // One hard kill early, one hang long enough for the watchdog (64 ticks
  // against its Watchdog::kAllowanceTicks = 12 leaves no doubt), one sticky
  // poison, and transient poison every fifth of the run.
  constexpr uint64_t kHangTicks = 64;
  static_assert(kHangTicks > Watchdog::kAllowanceTicks);
  const uint64_t t = std::max<uint64_t>(ticks, 100);
  return "kill@" + std::to_string(t / 4) + ":0; hang@" + std::to_string(t / 2) + ":rx" +
         std::to_string(kHangTicks) + "; poison@" + std::to_string(t / 8) + ":r!; poison@every" +
         std::to_string(t / 5) + ":r";
}

CampaignEngine::CampaignEngine(const ChaosConfig& config, int num_shards)
    : num_shards_(num_shards), rng_(config.seed) {
  O1_CHECK(num_shards > 0);
  for (const ChaosAction& action : config.schedule) {
    schedule_.push_back(Scheduled{action, action.at_tick, false});
  }
}

std::vector<ChaosFiring> CampaignEngine::Poll(uint64_t tick) {
  std::vector<ChaosFiring> due;
  for (Scheduled& p : schedule_) {
    if (p.done || p.next_tick != tick) {
      // Torn arming is special: it fires exactly once, at tick 0, to arm the
      // injector; the actual crash happens whenever the event count hits.
      continue;
    }
    ChaosFiring firing;
    firing.kind = p.action.kind;
    firing.tick = tick;
    firing.duration_ticks = p.action.duration_ticks;
    firing.event_index = p.action.event_index;
    firing.sticky = p.action.sticky;
    firing.shard = p.action.shard >= 0
                       ? p.action.shard
                       : static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(num_shards_)));
    due.push_back(firing);
    ++firings_;
    log_ += "t=" + std::to_string(tick) + " fire " + ChaosKindName(firing.kind);
    if (firing.kind == ChaosKind::kTornWriteCrash || firing.kind == ChaosKind::kTornFlushCrash) {
      log_ += " index=" + std::to_string(firing.event_index);
    } else if (firing.kind != ChaosKind::kCrashMachine) {
      log_ += " shard=" + std::to_string(firing.shard);
    }
    if (firing.kind == ChaosKind::kHangShard) {
      log_ += " ticks=" + std::to_string(firing.duration_ticks);
    }
    if (firing.sticky) {
      log_ += " sticky";
    }
    log_ += "\n";
    if (p.action.every_ticks != 0) {
      p.next_tick = tick + p.action.every_ticks;
    } else {
      p.done = true;
    }
  }
  return due;
}

void CampaignEngine::Note(const std::string& line) { log_ += line + "\n"; }

}  // namespace o1mem
