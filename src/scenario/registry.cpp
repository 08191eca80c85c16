#include "scenario/registry.h"

#include <utility>

namespace mcs {

namespace {

struct Entry {
  ScenarioSpec spec;
  std::string description;
};

ScenarioSpec preset(const char* name, DeploymentKind kind, ProtocolKind protocol, int n,
                    int channels) {
  ScenarioSpec s;
  s.name = name;
  s.deployment.kind = kind;
  s.deployment.n = n;
  s.protocol = protocol;
  s.channels = channels;
  return s;
}

/// Builds the registry.  Every DeploymentKind appears at least once and
/// every ProtocolKind has at least one preset (CI smokes them all); the
/// impairment presets exercise the fading layer.  Preset defaults are
/// sized so the whole registry smoke-runs in seconds.
std::vector<Entry> buildRegistry() {
  std::vector<Entry> r;
  const auto add = [&r](ScenarioSpec spec, std::string description) {
    r.push_back({std::move(spec), std::move(description)});
  };

  // -- one preset per deployment generator --------------------------------
  add(preset("uniform_square", DeploymentKind::UniformSquare, ProtocolKind::AggregateMax, 400,
             8),
      "uniform square deployment, MAX aggregation (the paper's headline workload)");

  {
    ScenarioSpec s = preset("uniform_disk", DeploymentKind::UniformDisk,
                            ProtocolKind::AggregateMax, 400, 8);
    s.deployment.radius = 0.8;
    add(s, "uniform disk deployment, MAX aggregation");
  }

  {
    ScenarioSpec s = preset("perturbed_grid", DeploymentKind::PerturbedGrid,
                            ProtocolKind::AggregateMax, 400, 8);
    s.deployment.side = 1.6;
    s.deployment.jitter = 0.35;
    add(s, "jittered grid deployment, MAX aggregation");
  }

  {
    ScenarioSpec s =
        preset("clustered", DeploymentKind::Clustered, ProtocolKind::AggregateMax, 450, 8);
    s.deployment.side = 1.8;
    s.deployment.clusters = 9;
    s.deployment.spread = 0.07;
    add(s, "Gaussian cluster deployment, MAX aggregation");
  }

  {
    ScenarioSpec s =
        preset("corridor", DeploymentKind::Corridor, ProtocolKind::AggregateSum, 320, 4);
    s.deployment.length = 3.0;
    s.deployment.width = 0.3;
    add(s, "long thin corridor, SUM over the exact backbone tree");
  }

  {
    // The §1 lower-bound instance.  Structure-only: the point of the
    // chain is slot-level behavior (see bench/exp_e7), and the blob of
    // near-origin points makes the full data phase pathological.
    ScenarioSpec s = preset("exponential_chain", DeploymentKind::ExponentialChain,
                            ProtocolKind::Structure, 48, 4);
    s.deployment.chainBase = 1.25;
    s.deployment.chainMaxGap = 0.45;  // < R_eps = 0.5: the chain stays connected
    add(s, "exponential chain (§1 instance), structure construction only");
  }

  // -- new workloads -------------------------------------------------------
  {
    // Poisson-disk "sensor mesh": engineered near-uniform coverage.
    ScenarioSpec s =
        preset("sensor_mesh", DeploymentKind::PoissonDisk, ProtocolKind::AggregateMax, 400, 8);
    s.deployment.side = 1.6;
    s.deployment.minDist = 0.04;
    add(s, "Poisson-disk sensor mesh (near-uniform coverage), MAX aggregation");
  }

  {
    // Hotspot: 60% of nodes in a patch 12% of the side, rest sparse.
    ScenarioSpec s =
        preset("hotspot_mixture", DeploymentKind::Mixture, ProtocolKind::AggregateMax, 500, 8);
    s.deployment.side = 2.0;
    s.deployment.denseFrac = 0.6;
    s.deployment.patchFrac = 0.12;
    add(s, "dense hotspot inside a sparse field, MAX aggregation");
  }

  // -- channel impairments -------------------------------------------------
  {
    ScenarioSpec s = preset("rayleigh_mesh", DeploymentKind::UniformSquare,
                            ProtocolKind::AggregateMax, 350, 8);
    s.deployment.side = 1.3;
    s.sinr.fading.model = FadingModel::Rayleigh;
    add(s, "MAX aggregation under Rayleigh block fading");
  }

  {
    ScenarioSpec s =
        preset("shadowed_city", DeploymentKind::Clustered, ProtocolKind::Structure, 400, 8);
    s.deployment.side = 1.6;
    s.deployment.clusters = 8;
    s.deployment.spread = 0.06;
    s.sinr.fading.model = FadingModel::RayleighLognormal;
    s.sinr.fading.shadowSigmaDb = 4.0;
    add(s, "structure construction under composite Rayleigh + 4dB shadowing");
  }

  // -- baselines / medium modes -------------------------------------------
  {
    ScenarioSpec s =
        preset("aloha_patch", DeploymentKind::UniformSquare, ProtocolKind::Aloha, 300, 1);
    s.deployment.side = 0.9;
    add(s, "single-channel ALOHA baseline aggregation on a dense patch");
  }

  {
    ScenarioSpec s = preset("nearfar_dense", DeploymentKind::UniformSquare,
                            ProtocolKind::AggregateMax, 600, 8);
    s.deployment.side = 0.8;
    s.sinr.mediumMode = MediumMode::NearFar;
    add(s, "dense MAX aggregation under the grid-batched NearFar medium");
  }

  {
    // The million-node scale target (ROADMAP item 1) under the
    // hierarchical far-field medium.  Ruling set keeps per-slot traffic
    // sparse (initial tx probability ~ 1/n) and never builds the O(n
    // Delta) communication graph, so the deployment + slot loop is the
    // whole cost; side = 1000 keeps the density near one node per unit
    // square.  CI smokes it with --ruling_rounds=2 --seeds=1; defaults
    // here are for real (minutes-long) runs.  The "huge_" name prefix
    // excludes it from the every-preset smoke loop in ci/verify.sh.
    ScenarioSpec s = preset("huge_hier", DeploymentKind::UniformSquare,
                            ProtocolKind::RulingSet, 1'000'000, 1);
    s.deployment.side = 1000.0;
    s.sinr.mediumMode = MediumMode::Hierarchical;
    s.seeds = 1;
    add(s, "million-node (r, 2r)-ruling set under the hierarchical far-field medium");
  }

  // -- symmetry-breaking / structure workloads (one per new ProtocolKind) --
  {
    ScenarioSpec s =
        preset("coloring_patch", DeploymentKind::UniformSquare, ProtocolKind::Coloring, 350, 8);
    s.deployment.side = 1.0;
    add(s, "node coloring (§7) on a dense patch: O(Delta) colors, proper on G");
  }

  {
    ScenarioSpec s = preset("cluster_palette", DeploymentKind::Clustered,
                            ProtocolKind::ClusterColoring, 350, 8);
    s.deployment.side = 1.6;
    s.deployment.clusters = 8;
    s.deployment.spread = 0.07;
    add(s, "dominating set + cluster coloring/TDMA (§5.1) on a clustered field");
  }

  {
    ScenarioSpec s = preset("csa_patch", DeploymentKind::UniformSquare, ProtocolKind::Csa, 350,
                            8);
    s.deployment.side = 1.0;
    add(s, "cluster-size approximation (§5.2.1) on a dense patch");
  }

  {
    ScenarioSpec s = preset("ruling_field", DeploymentKind::UniformSquare,
                            ProtocolKind::RulingSet, 400, 1);
    s.deployment.side = 1.4;
    add(s, "(r, 2r)-ruling set (§4) over a uniform field, single channel");
  }

  {
    ScenarioSpec s = preset("dominators", DeploymentKind::UniformSquare,
                            ProtocolKind::DominatingSet, 400, 1);
    s.deployment.side = 1.4;
    add(s, "r_c-dominating set + clustering (§5.1.1) over a uniform field");
  }

  {
    ScenarioSpec s = preset("chain_lowerbound", DeploymentKind::ExponentialChain,
                            ProtocolKind::ChainBaseline, 32, 4);
    s.deployment.chainBase = 2.0;  // the literal {2^i} instance of §1
    s.deployment.chainMaxGap = 0.9;
    s.chainTrials = 300;
    add(s, "§1 chain concurrency sampling: <= 1 descending sender per channel per slot");
  }

  // -- mobility & churn (one mobile preset per ProtocolKind) ---------------
  // Speeds are units of R_T per slot: 5e-4 drifts a node by ~half a
  // cluster radius over a typical structure construction — enough to
  // decay the graph measurably while letting every protocol still finish.
  const auto mobile = [](ScenarioSpec s, const char* name, MobilityKind kind, double speed,
                         double dep = 0.0, double arr = 0.0) {
    s.name = name;
    s.topology.mobility.kind = kind;
    s.topology.mobility.speed = speed;
    s.topology.churn.departureRate = dep;
    s.topology.churn.arrivalRate = arr;
    return s;
  };

  add(mobile(preset("mobile_agg_max", DeploymentKind::UniformSquare,
                    ProtocolKind::AggregateMax, 400, 8),
             "mobile_agg_max", MobilityKind::RandomWalk, 5e-4),
      "MAX aggregation while every node random-walks (drift + re-delivery metrics)");

  {
    // SUM's exact backbone tree is the most drift-fragile machinery in
    // the repo: ballistic motion at any practical speed starves the
    // convergecast, so this preset stresses it with diffusive drift plus
    // churn instead (waypoint motion lives on the sturdier kinds).
    ScenarioSpec s = preset("mobile_agg_sum", DeploymentKind::UniformSquare,
                            ProtocolKind::AggregateSum, 350, 8);
    s.deployment.side = 1.2;
    add(mobile(std::move(s), "mobile_agg_sum", MobilityKind::RandomWalk, 5e-5, 5e-5, 2e-2),
        "SUM over the exact backbone tree under slow diffusive drift plus churn");
  }

  {
    ScenarioSpec s =
        preset("mobile_aloha", DeploymentKind::UniformSquare, ProtocolKind::Aloha, 300, 1);
    s.deployment.side = 0.9;
    add(mobile(std::move(s), "mobile_aloha", MobilityKind::RandomWalk, 5e-4),
        "single-channel ALOHA baseline with random-walking nodes");
  }

  {
    ScenarioSpec s = preset("mobile_structure", DeploymentKind::Clustered,
                            ProtocolKind::Structure, 400, 8);
    s.deployment.side = 1.8;
    s.deployment.clusters = 8;
    s.deployment.spread = 0.07;
    s = mobile(std::move(s), "mobile_structure", MobilityKind::GroupReference, 1e-3);
    s.topology.mobility.groups = 8;
    s.topology.mobility.groupRadius = 0.25;
    add(s, "structure construction while clusters drift as mobile groups (RPGM)");
  }

  {
    ScenarioSpec s = preset("mobile_coloring", DeploymentKind::UniformSquare,
                            ProtocolKind::Coloring, 350, 8);
    s.deployment.side = 1.0;
    add(mobile(std::move(s), "mobile_coloring", MobilityKind::RandomWalk, 5e-4),
        "node coloring under random-walk drift: how stale does proper get?");
  }

  {
    ScenarioSpec s = preset("mobile_palette", DeploymentKind::Clustered,
                            ProtocolKind::ClusterColoring, 350, 8);
    s.deployment.side = 1.6;
    s.deployment.clusters = 8;
    s.deployment.spread = 0.07;
    s = mobile(std::move(s), "mobile_palette", MobilityKind::GroupReference, 1e-3);
    s.topology.mobility.groups = 8;
    add(s, "cluster coloring/TDMA while the clusters themselves move (group mobility)");
  }

  {
    ScenarioSpec s =
        preset("mobile_csa", DeploymentKind::UniformSquare, ProtocolKind::Csa, 350, 8);
    s.deployment.side = 1.0;
    add(mobile(std::move(s), "mobile_csa", MobilityKind::RandomWalk, 5e-4, 2e-4, 5e-3),
        "cluster-size approximation under drift plus light churn");
  }

  {
    ScenarioSpec s = preset("mobile_ruling", DeploymentKind::UniformSquare,
                            ProtocolKind::RulingSet, 400, 1);
    s.deployment.side = 1.4;
    s = mobile(std::move(s), "mobile_ruling", MobilityKind::RandomWaypoint, 1e-3);
    s.topology.mobility.pause = 20;
    add(s, "(r, 2r)-ruling set under random-waypoint motion");
  }

  {
    ScenarioSpec s = preset("mobile_dominators", DeploymentKind::UniformSquare,
                            ProtocolKind::DominatingSet, 400, 1);
    s.deployment.side = 1.4;
    add(mobile(std::move(s), "mobile_dominators", MobilityKind::RandomWalk, 1e-3, 2e-4, 5e-3),
        "r_c-dominating set while nodes walk and churn in and out");
  }

  {
    // Dynamic chain runs sample through the scenario Simulator, so churn
    // gates the senders slot by slot.  Motion stays off: the exponential
    // chain's geometry IS the instance.
    ScenarioSpec s = preset("mobile_chain", DeploymentKind::ExponentialChain,
                            ProtocolKind::ChainBaseline, 32, 4);
    s.deployment.chainBase = 2.0;
    s.deployment.chainMaxGap = 0.9;
    s.chainTrials = 300;
    add(mobile(std::move(s), "mobile_chain", MobilityKind::Static, 0.0, 1e-3, 1e-2),
        "§1 chain sampling with churn-only dynamics (alive-mask plumbing smoke)");
  }

  {
    ScenarioSpec s = preset("mobile_nearfar", DeploymentKind::UniformSquare,
                            ProtocolKind::AggregateMax, 600, 8);
    s.deployment.side = 0.8;
    s.sinr.mediumMode = MediumMode::NearFar;
    add(mobile(std::move(s), "mobile_nearfar", MobilityKind::RandomWalk, 5e-4),
        "dense mobile MAX aggregation on the NearFar medium");
  }

  return r;
}

const std::vector<Entry>& registry() {
  static const std::vector<Entry> r = buildRegistry();
  return r;
}

}  // namespace

std::vector<std::string> ScenarioRegistry::names() {
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const Entry& e : registry()) out.push_back(e.spec.name);
  return out;
}

std::vector<ScenarioPresetInfo> ScenarioRegistry::list() {
  std::vector<ScenarioPresetInfo> out;
  out.reserve(registry().size());
  for (const Entry& e : registry()) out.push_back({e.spec.name, e.description});
  return out;
}

bool ScenarioRegistry::find(const std::string& name, ScenarioSpec& out) {
  for (const Entry& e : registry()) {
    if (e.spec.name == name) {
      out = e.spec;
      return true;
    }
  }
  return false;
}

std::string ScenarioRegistry::describe(const std::string& name) {
  for (const Entry& e : registry()) {
    if (e.spec.name == name) return e.description;
  }
  return "";
}

}  // namespace mcs
