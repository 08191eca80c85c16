#include "scenario/spec.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

namespace mcs {

namespace {

struct KindName {
  const char* name;
  std::uint8_t value;
};

constexpr KindName kDeploymentNames[] = {
    {"uniform_square", static_cast<std::uint8_t>(DeploymentKind::UniformSquare)},
    {"uniform_disk", static_cast<std::uint8_t>(DeploymentKind::UniformDisk)},
    {"perturbed_grid", static_cast<std::uint8_t>(DeploymentKind::PerturbedGrid)},
    {"clustered", static_cast<std::uint8_t>(DeploymentKind::Clustered)},
    {"corridor", static_cast<std::uint8_t>(DeploymentKind::Corridor)},
    {"exponential_chain", static_cast<std::uint8_t>(DeploymentKind::ExponentialChain)},
    {"poisson_disk", static_cast<std::uint8_t>(DeploymentKind::PoissonDisk)},
    {"mixture", static_cast<std::uint8_t>(DeploymentKind::Mixture)},
};

constexpr KindName kProtocolNames[] = {
    {"agg_max", static_cast<std::uint8_t>(ProtocolKind::AggregateMax)},
    {"agg_sum", static_cast<std::uint8_t>(ProtocolKind::AggregateSum)},
    {"aloha", static_cast<std::uint8_t>(ProtocolKind::Aloha)},
    {"structure", static_cast<std::uint8_t>(ProtocolKind::Structure)},
    {"coloring", static_cast<std::uint8_t>(ProtocolKind::Coloring)},
    {"cluster_coloring", static_cast<std::uint8_t>(ProtocolKind::ClusterColoring)},
    {"csa", static_cast<std::uint8_t>(ProtocolKind::Csa)},
    {"ruling_set", static_cast<std::uint8_t>(ProtocolKind::RulingSet)},
    {"dominating_set", static_cast<std::uint8_t>(ProtocolKind::DominatingSet)},
    {"chain_baseline", static_cast<std::uint8_t>(ProtocolKind::ChainBaseline)},
};

constexpr KindName kCsaVariantNames[] = {
    {"auto", static_cast<std::uint8_t>(CsaVariant::Auto)},
    {"large", static_cast<std::uint8_t>(CsaVariant::Large)},
    {"small", static_cast<std::uint8_t>(CsaVariant::Small)},
};

constexpr KindName kFadingNames[] = {
    {"none", static_cast<std::uint8_t>(FadingModel::None)},
    {"rayleigh", static_cast<std::uint8_t>(FadingModel::Rayleigh)},
    {"lognormal", static_cast<std::uint8_t>(FadingModel::Lognormal)},
    {"rayleigh_lognormal", static_cast<std::uint8_t>(FadingModel::RayleighLognormal)},
};

constexpr KindName kMediumModeNames[] = {
    {"exact", static_cast<std::uint8_t>(MediumMode::Exact)},
    {"nearfar", static_cast<std::uint8_t>(MediumMode::NearFar)},
    {"hier", static_cast<std::uint8_t>(MediumMode::Hierarchical)},
};

constexpr KindName kMobilityNames[] = {
    {"static", static_cast<std::uint8_t>(MobilityKind::Static)},
    {"random_walk", static_cast<std::uint8_t>(MobilityKind::RandomWalk)},
    {"random_waypoint", static_cast<std::uint8_t>(MobilityKind::RandomWaypoint)},
    {"group", static_cast<std::uint8_t>(MobilityKind::GroupReference)},
};

template <std::size_t N>
std::string nameOf(const KindName (&table)[N], std::uint8_t value) {
  for (const KindName& k : table) {
    if (k.value == value) return k.name;
  }
  return "?";
}

template <std::size_t N>
bool valueOf(const KindName (&table)[N], const std::string& name, std::uint8_t& out,
             std::string& err, const char* what) {
  for (const KindName& k : table) {
    if (name == k.name) {
      out = k.value;
      return true;
    }
  }
  std::string known;
  for (const KindName& k : table) {
    if (!known.empty()) known += "|";
    known += k.name;
  }
  err = std::string("unknown ") + what + " \"" + name + "\" (one of: " + known + ")";
  return false;
}

bool setLong(long& field, const std::string& key, const std::string& value, std::string& err) {
  long v = 0;
  if (!parseLong(value, v)) {
    err = "key \"" + key + "\": malformed integer \"" + value + "\"";
    return false;
  }
  field = v;
  return true;
}

bool setInt(int& field, const std::string& key, const std::string& value, std::string& err) {
  long v = 0;
  if (!setLong(v, key, value, err)) return false;
  // A narrowing cast would wrap, e.g. n = 4294967297 into n = 1.
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    err = "key \"" + key + "\": integer \"" + value + "\" out of range";
    return false;
  }
  field = static_cast<int>(v);
  return true;
}

bool setDouble(double& field, const std::string& key, const std::string& value,
               std::string& err) {
  double v = 0.0;
  if (!parseDouble(value, v)) {
    err = "key \"" + key + "\": malformed number \"" + value + "\"";
    return false;
  }
  field = v;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::string toString(DeploymentKind kind) {
  return nameOf(kDeploymentNames, static_cast<std::uint8_t>(kind));
}
std::string toString(ProtocolKind kind) {
  return nameOf(kProtocolNames, static_cast<std::uint8_t>(kind));
}
std::string toString(FadingModel model) {
  return nameOf(kFadingNames, static_cast<std::uint8_t>(model));
}
std::string toString(MediumMode mode) {
  return nameOf(kMediumModeNames, static_cast<std::uint8_t>(mode));
}
std::string toString(CsaVariant variant) {
  return nameOf(kCsaVariantNames, static_cast<std::uint8_t>(variant));
}
std::string toString(MobilityKind kind) {
  return nameOf(kMobilityNames, static_cast<std::uint8_t>(kind));
}

bool applyScenarioKey(ScenarioSpec& spec, const std::string& key, const std::string& value,
                      std::string& err) {
  DeploymentSpec& d = spec.deployment;
  SinrParams& p = spec.sinr;
  std::uint8_t enumValue = 0;

  if (key == "name") {
    spec.name = value;
    return true;
  }
  if (key == "deployment") {
    if (!valueOf(kDeploymentNames, value, enumValue, err, "deployment")) return false;
    d.kind = static_cast<DeploymentKind>(enumValue);
    return true;
  }
  if (key == "protocol") {
    if (!valueOf(kProtocolNames, value, enumValue, err, "protocol")) return false;
    spec.protocol = static_cast<ProtocolKind>(enumValue);
    return true;
  }
  if (key == "fading") {
    if (!valueOf(kFadingNames, value, enumValue, err, "fading model")) return false;
    p.fading.model = static_cast<FadingModel>(enumValue);
    return true;
  }
  if (key == "medium_mode") {
    if (!valueOf(kMediumModeNames, value, enumValue, err, "medium mode")) return false;
    p.mediumMode = static_cast<MediumMode>(enumValue);
    return true;
  }
  if (key == "csa_variant") {
    if (!valueOf(kCsaVariantNames, value, enumValue, err, "CSA variant")) return false;
    spec.csaVariant = static_cast<CsaVariant>(enumValue);
    return true;
  }
  if (key == "mobility") {
    if (!valueOf(kMobilityNames, value, enumValue, err, "mobility model")) return false;
    spec.topology.mobility.kind = static_cast<MobilityKind>(enumValue);
    return true;
  }
  if (key == "range") {
    // Convenience: rescale noise so transmissionRange() == value.
    double rt = 0.0;
    if (!setDouble(rt, key, value, err)) return false;
    if (rt <= 0.0) {
      err = "key \"range\": must be > 0";
      return false;
    }
    p = p.withRange(rt);
    return true;
  }
  if (key == "seed0") {
    long v = 0;
    if (!setLong(v, key, value, err)) return false;
    spec.seed0 = static_cast<std::uint64_t>(v);
    return true;
  }

  // Plain numeric keys.
  if (key == "n") return setInt(d.n, key, value, err);
  if (key == "side") return setDouble(d.side, key, value, err);
  if (key == "radius") return setDouble(d.radius, key, value, err);
  if (key == "jitter") return setDouble(d.jitter, key, value, err);
  if (key == "clusters") return setInt(d.clusters, key, value, err);
  if (key == "spread") return setDouble(d.spread, key, value, err);
  if (key == "length") return setDouble(d.length, key, value, err);
  if (key == "width") return setDouble(d.width, key, value, err);
  if (key == "chain_base") return setDouble(d.chainBase, key, value, err);
  if (key == "chain_max_gap") return setDouble(d.chainMaxGap, key, value, err);
  if (key == "min_dist") return setDouble(d.minDist, key, value, err);
  if (key == "dense_frac") return setDouble(d.denseFrac, key, value, err);
  if (key == "patch_frac") return setDouble(d.patchFrac, key, value, err);
  if (key == "dedupe_eps") return setDouble(d.dedupeEps, key, value, err);
  if (key == "alpha") return setDouble(p.alpha, key, value, err);
  if (key == "beta") return setDouble(p.beta, key, value, err);
  if (key == "noise") return setDouble(p.noise, key, value, err);
  if (key == "power") return setDouble(p.power, key, value, err);
  if (key == "near_field") return setDouble(p.nearField, key, value, err);
  if (key == "hier_theta") return setDouble(p.hierTheta, key, value, err);
  if (key == "bounds_width") return setDouble(spec.boundsWidth, key, value, err);
  if (key == "shadow_sigma_db") return setDouble(p.fading.shadowSigmaDb, key, value, err);
  if (key == "channels") return setInt(spec.channels, key, value, err);
  if (key == "delta_hat") return setInt(spec.deltaHat, key, value, err);
  if (key == "ruling_radius") return setDouble(spec.rulingRadius, key, value, err);
  if (key == "ruling_rounds") return setInt(spec.rulingRounds, key, value, err);
  if (key == "chain_trials") return setInt(spec.chainTrials, key, value, err);
  if (key == "mobility_speed") return setDouble(spec.topology.mobility.speed, key, value, err);
  if (key == "mobility_pause") return setInt(spec.topology.mobility.pause, key, value, err);
  if (key == "mobility_groups") return setInt(spec.topology.mobility.groups, key, value, err);
  if (key == "mobility_group_radius") {
    return setDouble(spec.topology.mobility.groupRadius, key, value, err);
  }
  if (key == "churn_departure_rate") {
    return setDouble(spec.topology.churn.departureRate, key, value, err);
  }
  if (key == "churn_arrival_rate") {
    return setDouble(spec.topology.churn.arrivalRate, key, value, err);
  }
  if (key == "mobility_sample_every") return setInt(spec.topology.sampleEvery, key, value, err);
  if (key == "seeds") return setInt(spec.seeds, key, value, err);

  err = "unknown scenario key \"" + key + "\"";
  return false;
}

bool loadScenarioFile(ScenarioSpec& spec, const std::string& path, std::string& err) {
  std::ifstream f(path);
  if (!f) {
    err = "cannot open scenario file \"" + path + "\"";
    return false;
  }
  std::string line;
  int lineNo = 0;
  while (std::getline(f, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      err = path + ":" + std::to_string(lineNo) + ": expected `key = value`, got \"" + line +
            "\"";
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      err = path + ":" + std::to_string(lineNo) + ": empty key or value";
      return false;
    }
    std::string keyErr;
    if (!applyScenarioKey(spec, key, value, keyErr)) {
      err = path + ":" + std::to_string(lineNo) + ": " + keyErr;
      return false;
    }
  }
  return true;
}

bool applyScenarioArgs(ScenarioSpec& spec, const Args& args,
                       const std::vector<std::string>& reserved, std::string& err) {
  // Command-line order, not map order: `--alpha=2.5 --range=0.8` must
  // rescale the noise with the overridden alpha.
  for (const auto& [key, value] : args.namedOrdered()) {
    bool skip = false;
    for (const std::string& r : reserved) {
      if (key == r) {
        skip = true;
        break;
      }
    }
    if (skip) continue;
    if (!applyScenarioKey(spec, key, value, err)) return false;
  }
  return true;
}

std::string validateScenario(const ScenarioSpec& spec) {
  const DeploymentSpec& d = spec.deployment;
  if (d.n <= 0) return "deployment n must be > 0";
  if (spec.channels < 1) return "channels must be >= 1";
  if (spec.seeds < 1) return "seeds must be >= 1";
  if (!spec.sinr.valid()) {
    return "invalid SINR parameters (need alpha > 2, beta >= 1, noise > 0, power > 0, "
           "near_field >= 1, 0 < hier_theta <= 1, shadow_sigma_db >= 0)";
  }
  switch (d.kind) {
    case DeploymentKind::UniformSquare:
    case DeploymentKind::PerturbedGrid:
      if (d.side <= 0.0) return "side must be > 0";
      break;
    case DeploymentKind::UniformDisk:
      if (d.radius <= 0.0) return "radius must be > 0";
      break;
    case DeploymentKind::Clustered:
      if (d.side <= 0.0) return "side must be > 0";
      if (d.clusters < 1) return "clusters must be >= 1";
      if (d.spread <= 0.0) return "spread must be > 0";
      break;
    case DeploymentKind::Corridor:
      if (d.length <= 0.0 || d.width <= 0.0) return "corridor length/width must be > 0";
      break;
    case DeploymentKind::ExponentialChain:
      if (d.chainBase <= 1.0) return "chain_base must be > 1";
      if (d.chainMaxGap <= 0.0) return "chain_max_gap must be > 0";
      break;
    case DeploymentKind::PoissonDisk:
      if (d.side <= 0.0) return "side must be > 0";
      if (d.minDist <= 0.0) return "min_dist must be > 0";
      break;
    case DeploymentKind::Mixture:
      if (d.side <= 0.0) return "side must be > 0";
      if (d.denseFrac < 0.0 || d.denseFrac > 1.0) return "dense_frac must be in [0, 1]";
      if (d.patchFrac <= 0.0 || d.patchFrac > 1.0) return "patch_frac must be in (0, 1]";
      break;
  }
  if (spec.protocol == ProtocolKind::Aloha && spec.channels != 1) {
    return "protocol aloha is the single-channel baseline (set channels = 1)";
  }
  if (spec.protocol == ProtocolKind::ChainBaseline) {
    if (d.kind != DeploymentKind::ExponentialChain) {
      return "protocol chain_baseline samples the §1 lower-bound instance "
             "(set deployment = exponential_chain)";
    }
    if (spec.chainTrials < 1) return "chain_trials must be >= 1";
  }
  if (spec.boundsWidth < 0.0) return "bounds_width must be >= 0 (0 = exact knowledge)";
  if (spec.rulingRounds < 0) return "ruling_rounds must be >= 0 (0 = auto)";
  if (spec.rulingRadius < 0.0) return "ruling_radius must be >= 0 (0 = auto r_c)";
  const TopologyParams& t = spec.topology;
  if (t.mobility.speed < 0.0) return "mobility_speed must be >= 0";
  if (t.mobility.kind != MobilityKind::Static && t.mobility.speed <= 0.0) {
    return "mobility model \"" + toString(t.mobility.kind) +
           "\" needs mobility_speed > 0 (or set mobility = static)";
  }
  if (t.mobility.pause < 0) return "mobility_pause must be >= 0";
  if (t.mobility.groups < 1) return "mobility_groups must be >= 1";
  if (t.mobility.groupRadius <= 0.0) return "mobility_group_radius must be > 0";
  if (t.churn.departureRate < 0.0 || t.churn.departureRate > 1.0) {
    return "churn_departure_rate is a per-slot probability (0..1)";
  }
  if (t.churn.arrivalRate < 0.0 || t.churn.arrivalRate > 1.0) {
    return "churn_arrival_rate is a per-slot probability (0..1)";
  }
  if (t.sampleEvery < 1) return "mobility_sample_every must be >= 1";
  return "";
}

std::string describeScenario(const ScenarioSpec& spec) {
  std::ostringstream os;
  const DeploymentSpec& d = spec.deployment;
  os << spec.name << ": " << toString(d.kind) << " n=" << d.n << " F=" << spec.channels
     << " protocol=" << toString(spec.protocol) << " medium=" << toString(spec.sinr.mediumMode)
     << " fading=" << toString(spec.sinr.fading.model);
  if (spec.sinr.fading.model == FadingModel::Lognormal ||
      spec.sinr.fading.model == FadingModel::RayleighLognormal) {
    os << "(" << spec.sinr.fading.shadowSigmaDb << "dB)";
  }
  if (spec.boundsWidth > 0.0) os << " bounds_width=" << spec.boundsWidth;
  if (spec.topology.mobility.moving()) {
    os << " mobility=" << toString(spec.topology.mobility.kind) << "@"
       << spec.topology.mobility.speed;
  }
  if (spec.topology.churn.enabled()) {
    os << " churn=" << spec.topology.churn.departureRate << "/"
       << spec.topology.churn.arrivalRate;
  }
  os << " seeds=" << spec.seeds << "@" << spec.seed0;
  return os.str();
}

std::string scenarioToKeyValues(const ScenarioSpec& spec) {
  const DeploymentSpec& d = spec.deployment;
  const SinrParams& p = spec.sinr;
  std::string out;
  const auto add = [&out](const char* key, const std::string& value) {
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  };
  const auto num = [](double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  };
  add("name", spec.name);
  add("deployment", toString(d.kind));
  add("n", std::to_string(d.n));
  add("side", num(d.side));
  add("radius", num(d.radius));
  add("jitter", num(d.jitter));
  add("clusters", std::to_string(d.clusters));
  add("spread", num(d.spread));
  add("length", num(d.length));
  add("width", num(d.width));
  add("chain_base", num(d.chainBase));
  add("chain_max_gap", num(d.chainMaxGap));
  add("min_dist", num(d.minDist));
  add("dense_frac", num(d.denseFrac));
  add("patch_frac", num(d.patchFrac));
  add("dedupe_eps", num(d.dedupeEps));
  add("alpha", num(p.alpha));
  add("beta", num(p.beta));
  add("noise", num(p.noise));
  add("power", num(p.power));
  add("medium_mode", toString(p.mediumMode));
  add("near_field", num(p.nearField));
  add("hier_theta", num(p.hierTheta));
  add("fading", toString(p.fading.model));
  add("shadow_sigma_db", num(p.fading.shadowSigmaDb));
  add("bounds_width", num(spec.boundsWidth));
  add("protocol", toString(spec.protocol));
  add("channels", std::to_string(spec.channels));
  add("delta_hat", std::to_string(spec.deltaHat));
  add("csa_variant", toString(spec.csaVariant));
  add("ruling_radius", num(spec.rulingRadius));
  add("ruling_rounds", std::to_string(spec.rulingRounds));
  add("chain_trials", std::to_string(spec.chainTrials));
  add("mobility", toString(spec.topology.mobility.kind));
  add("mobility_speed", num(spec.topology.mobility.speed));
  add("mobility_pause", std::to_string(spec.topology.mobility.pause));
  add("mobility_groups", std::to_string(spec.topology.mobility.groups));
  add("mobility_group_radius", num(spec.topology.mobility.groupRadius));
  add("churn_departure_rate", num(spec.topology.churn.departureRate));
  add("churn_arrival_rate", num(spec.topology.churn.arrivalRate));
  add("mobility_sample_every", std::to_string(spec.topology.sampleEvery));
  add("seeds", std::to_string(spec.seeds));
  add("seed0", std::to_string(spec.seed0));
  return out;
}

std::vector<Vec2> materializeDeployment(const DeploymentSpec& d, Rng& rng) {
  std::vector<Vec2> pts;
  switch (d.kind) {
    case DeploymentKind::UniformSquare:
      pts = deployUniformSquare(d.n, d.side, rng);
      break;
    case DeploymentKind::UniformDisk:
      pts = deployUniformDisk(d.n, d.radius, rng);
      break;
    case DeploymentKind::PerturbedGrid:
      pts = deployPerturbedGrid(d.n, d.side, d.jitter, rng);
      break;
    case DeploymentKind::Clustered:
      pts = deployClustered(d.n, d.clusters, d.side, d.spread, rng);
      break;
    case DeploymentKind::Corridor:
      pts = deployCorridor(d.n, d.length, d.width, rng);
      break;
    case DeploymentKind::ExponentialChain:
      pts = deployExponentialChain(d.n, d.chainBase, d.chainMaxGap);
      break;
    case DeploymentKind::PoissonDisk:
      pts = deployPoissonDisk(d.n, d.side, d.minDist, rng);
      break;
    case DeploymentKind::Mixture:
      pts = deployDenseSparseMixture(d.n, d.side, d.denseFrac, d.patchFrac, rng);
      break;
  }
  if (d.dedupeEps > 0.0) pts = dedupePositions(std::move(pts), d.dedupeEps, rng);
  return pts;
}

}  // namespace mcs
