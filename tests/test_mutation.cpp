// Seeded mutation tests for the bytes the campaign executor reads back:
// cell files (through loadCellResult, which resume and the CSV writer
// use) and RESULT frames (through FrameDecoder + decodeFrame +
// outcomeFromFrame, the forked lane's transport), plus the scenario spec
// files every run starts from (loadScenarioFile / applyScenarioKey +
// validateScenario).  An in-repo mutator —
// bit flips, truncations, splices — derives a bounded, fixed-seed corpus
// from one real input of each kind; every mutant must either load or fail
// with an error, and whatever loads must survive the consumers that read
// it next.  Crashes and memory errors surface under the sanitizer build.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/protocol.h"
#include "campaign/reduce.h"
#include "campaign/worker.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "telemetry/probes.h"
#include "telemetry/telemetry.h"
#include "test_support.h"
#include "util/framing.h"
#include "util/json.h"
#include "util/rng.h"

namespace mcs::campaign {
namespace {

constexpr int kMutants = 1500;

/// Bit flips, truncations and splices of a seed input, from a fixed seed.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::string& input, const std::string& donor) {
    std::string out = input;
    switch (rng_.below(3)) {
      case 0: {  // flip 1..8 random bits
        const std::uint64_t flips = 1 + rng_.below(8);
        for (std::uint64_t i = 0; i < flips && !out.empty(); ++i) {
          out[rng_.below(out.size())] ^= static_cast<char>(1u << rng_.below(8));
        }
        break;
      }
      case 1:  // truncate anywhere, including to nothing
        out.resize(rng_.below(out.size() + 1));
        break;
      default: {  // splice: a prefix of the input onto a suffix of the donor
        out.resize(rng_.below(out.size() + 1));
        out += donor.substr(rng_.below(donor.size() + 1));
        break;
      }
    }
    return out;
  }

 private:
  Rng rng_;
};

/// Applies edit `edit` to the `target`-th object member in depth-first
/// order: 0 drops the member, 1..5 replace its value with null, a string,
/// a small number, an empty array or an empty object.  False once
/// `target` runs past the last member.
bool editMember(Json& j, std::size_t& target, int edit) {
  if (j.isArray()) {
    for (Json& item : j.items()) {
      if (editMember(item, target, edit)) return true;
    }
    return false;
  }
  auto& members = j.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (target-- == 0) {
      static const Json kReplacements[] = {Json(), Json("x"), Json(7.0), Json::array(),
                                           Json::object()};
      if (edit == 0) {
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        members[i].second = kReplacements[edit - 1];
      }
      return true;
    }
    if (editMember(members[i].second, target, edit)) return true;
  }
  return false;
}

/// Depth-first object member paths, with array positions collapsed to
/// "[]" so that, say, every window of a slot series shares one path.
void memberPaths(const Json& j, const std::string& prefix, std::vector<std::string>& out) {
  if (j.isArray()) {
    for (const Json& item : j.items()) memberPaths(item, prefix + "[]", out);
    return;
  }
  for (const auto& [key, value] : j.members()) {
    const std::string path = prefix + "." + key;
    out.push_back(path);
    memberPaths(value, path, out);
  }
}

/// Documents one structural edit away from the JSON `text`: the first
/// member at every distinct path dropped or retyped.  These parse, so they
/// reach the decoders behind the parser with missing and mistyped fields —
/// what byte-level mutants almost never produce.
std::vector<std::string> structuralMutants(const std::string& text) {
  Json root;
  std::string err;
  EXPECT_TRUE(Json::parse(text, root, err)) << err;
  std::vector<std::string> paths;
  memberPaths(root, "", paths);
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (std::size_t target = 0; target < paths.size(); ++target) {
    if (!seen.insert(paths[target]).second) continue;
    for (int edit = 0; edit < 6; ++edit) {
      Json copy = root;
      std::size_t left = target;
      EXPECT_TRUE(editMember(copy, left, edit));
      out.push_back(copy.dump());
    }
  }
  return out;
}

std::string readBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// One real cell, run with probes and metrics armed so its cell file and
/// RESULT frame carry every block a decoder can meet: per-seed rows,
/// metrics, telemetry, probe sketches and the slot series.
struct RealCell {
  std::string cellFile;
  std::string resultWire;

  RealCell() {
    telemetry::resetMetrics();
    telemetry::resetProbes();
    telemetry::setProbesEnabled(true);
    SweepSpec spec;
    std::string err;
    for (const auto& [key, value] :
         {std::pair{"name", "mutation"}, std::pair{"base", "uniform_square"},
          std::pair{"n", "60"}, std::pair{"seeds", "2"}, std::pair{"seed0", "1"},
          std::pair{"channels", "2"}}) {
      EXPECT_TRUE(applySweepKey(spec, key, value, "", err)) << err;
    }
    std::vector<SweepCell> cells;
    EXPECT_TRUE(expandSweep(spec, cells, err)) << err;
    WorkerConfig cfg;
    cfg.campaign = spec.name;
    // Keyed by the test name: ctest runs each test in its own process, in
    // parallel, and each one builds this seed.
    cfg.outDir = testing::TempDir() + "mutation_seed_" +
                 testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(cfg.outDir);
    CellOutcome outcome;
    EXPECT_TRUE(runCell(cells.at(0), cfg, outcome, err)) << err;
    telemetry::setProbesEnabled(false);
    telemetry::setEnabled(false);
    telemetry::resetProbes();
    telemetry::resetMetrics();

    cellFile = readBytes(cellFilePath(cfg.outDir, spec.name, 0));
    resultWire = test::frameWireBytes(encodeFrame(resultFrame(0, outcome)));
    std::filesystem::remove_all(cfg.outDir);
  }
};

const RealCell& realCell() {
  static const RealCell cell;
  return cell;
}

TEST(Mutation, SeedInputsCarryEveryBlock) {
  // Guards the corpus itself: a seed missing a block would leave that
  // decoder unmutated.
  const RealCell& real = realCell();
  for (const char* block : {"\"per_seed\"", "\"metrics\"", "\"telemetry\"", "\"probes\"",
                            "\"series\"", "\"margin_db\""}) {
    EXPECT_NE(real.cellFile.find(block), std::string::npos) << block;
  }
  for (const char* block : {"\"moments\"", "\"telemetry\"", "\"probes\""}) {
    EXPECT_NE(real.resultWire.find(block), std::string::npos) << block;
  }
}

/// Loads `bytes` as a cell file the way resume does, then runs what the
/// report writers do with a loaded cell; returns whether it loaded.
bool loadsAsCellFile(const std::string& bytes, const std::string& path) {
  // Remove, then create: truncating a file that holds data can force a
  // synchronous writeback on some filesystems, which would dominate.
  std::filesystem::remove(path);
  std::ofstream(path, std::ios::binary) << bytes;
  CellResult cell;
  std::string err;
  if (!loadCellResult(path, cell, err)) {
    EXPECT_FALSE(err.empty()) << "a cell file failed to load without an error";
    return false;
  }
  const NamedStats stats = cellStats(cell);
  EXPECT_GE(stats.size(), 4u);
  (void)cell.summaries();
  std::ostringstream csv;
  appendCellCsvRows(csv, cell, {"channels"});
  EXPECT_FALSE(cellToJson(cell).dump().empty());
  return true;
}

/// Feeds wire bytes through the coordinator's RESULT path — FrameDecoder,
/// decodeFrame, outcomeFromFrame, a reduction fold; returns how many
/// RESULT frames decoded.
int resultsDecoded(const std::string& wire) {
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  int decoded = 0;
  std::string payload;
  while (dec.next(payload)) {
    Frame frame;
    std::string err;
    if (!decodeFrame(payload, frame, err)) {
      EXPECT_FALSE(err.empty()) << "a frame failed to decode without an error";
      continue;
    }
    if (frame.type != FrameType::Result) continue;
    CellOutcome outcome;
    if (!outcomeFromFrame(frame, outcome, err)) {
      EXPECT_FALSE(err.empty()) << "a RESULT frame failed to decode without an error";
      continue;
    }
    ++decoded;
    TreeReducer reducer(1);
    reducer.addLeaf(0, std::move(outcome.stats), std::move(outcome.probes));
    for (const auto& [name, s] : reducer.root()) (void)s.summary();
  }
  return decoded;
}

TEST(Mutation, CellFilesLoadOrFailWithAnError) {
  const RealCell& real = realCell();
  const std::string path = testing::TempDir() + "mutation_cell.json";
  Mutator mutator(20260917);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& donor = (i & 1) ? real.resultWire : real.cellFile;
    loaded += loadsAsCellFile(mutator.mutate(real.cellFile, donor), path) ? 1 : 0;
  }
  // The corpus must exercise both outcomes, or it tests nothing.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);

  const std::vector<std::string> structural = structuralMutants(real.cellFile);
  EXPECT_GT(structural.size(), 300u);
  loaded = 0;
  for (const std::string& mutant : structural) loaded += loadsAsCellFile(mutant, path) ? 1 : 0;
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, static_cast<int>(structural.size()));  // e.g. per_seed dropped
  std::filesystem::remove(path);
}

TEST(Mutation, ResultFramesDecodeOrFailWithAnError) {
  const RealCell& real = realCell();
  Mutator mutator(20260918);
  int decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& donor = (i & 1) ? real.cellFile : real.resultWire;
    decoded += resultsDecoded(mutator.mutate(real.resultWire, donor));
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutants);

  // Structural edits of the frame's JSON payload, re-framed.
  for (const std::string& payload : structuralMutants(real.resultWire.substr(4))) {
    (void)resultsDecoded(test::frameWireBytes(payload));
  }
}

TEST(Mutation, CountsThatNoIntegerHoldsFailWithAnError) {
  // Counts travel as JSON doubles.  Each value below, cast straight to
  // the integer field, would be undefined behaviour; the decoders must
  // refuse it and name the member instead.
  const RealCell& real = realCell();
  const std::string path = testing::TempDir() + "mutation_counts.json";
  std::string err;
  for (const double bad : {1e300, -1e19, 2.5, 18446744073709551616.0}) {
    for (const char* key : {"slots", "deployed_n", "seed"}) {
      Json cell;
      ASSERT_TRUE(Json::parse(real.cellFile, cell, err)) << err;
      cell.find("per_seed")->items().at(0).set(key, bad);
      std::filesystem::remove(path);
      std::ofstream(path, std::ios::binary) << cell.dump();
      CellResult loaded;
      err.clear();
      EXPECT_FALSE(loadCellResult(path, loaded, err)) << key << " = " << bad;
      EXPECT_NE(err.find(std::string("\"") + key + "\""), std::string::npos) << err;
    }

    Json body;
    ASSERT_TRUE(Json::parse(real.resultWire.substr(4), body, err)) << err;
    body.set("failures", bad);
    Frame frame;
    ASSERT_TRUE(decodeFrame(body.dump(), frame, err)) << err;
    CellOutcome outcome;
    err.clear();
    EXPECT_FALSE(outcomeFromFrame(frame, outcome, err)) << bad;
    EXPECT_NE(err.find("\"failures\""), std::string::npos) << err;

    ASSERT_TRUE(Json::parse(real.resultWire.substr(4), body, err)) << err;
    body.find("moments")->members().at(0).second.set("n", bad);
    ASSERT_TRUE(decodeFrame(body.dump(), frame, err)) << err;
    err.clear();
    EXPECT_FALSE(outcomeFromFrame(frame, outcome, err)) << bad;
    EXPECT_NE(err.find("\"n\""), std::string::npos) << err;
  }
  std::filesystem::remove(path);
}

TEST(Mutation, ProbeBlobNumbersThatNoIntegerHoldsFailWithAnError) {
  // The probe blob's sketch buckets, zero counts, series window counters
  // and span travel as JSON doubles too.  Each edit below plants a value
  // its integer field cannot hold; probesFromJson must refuse it, and so
  // must the RESULT and cell-file decoders that carry the blob.
  const RealCell& real = realCell();
  const std::string path = testing::TempDir() + "mutation_probes.json";
  Json body;
  std::string err;
  ASSERT_TRUE(Json::parse(real.resultWire.substr(4), body, err)) << err;
  const Json probes = *body.find("probes");
  telemetry::ProbeState decoded;
  ASSERT_TRUE(telemetry::probesFromJson(probes, decoded, err)) << err;
  ASSERT_FALSE(decoded.empty());

  using Edit = void (*)(Json&);
  const std::vector<std::pair<const char*, Edit>> edits{
      {"\"z\": 1e300", [](Json& p) { p.find("margin_db")->set("z", 1e300); }},
      {"\"z\": -1", [](Json& p) { p.find("far_db")->set("z", -1.0); }},
      {"bucket index 2^40",
       [](Json& p) {
         Json pair = Json::array();
         pair.push_back(1099511627776.0);
         pair.push_back(1.0);
         Json side = Json::array();
         side.push_back(std::move(pair));
         p.find("margin_db")->set("pos", std::move(side));
       }},
      {"bucket count 2.5",
       [](Json& p) {
         Json pair = Json::array();
         pair.push_back(3.0);
         pair.push_back(2.5);
         Json side = Json::array();
         side.push_back(std::move(pair));
         p.find("near_db")->set("neg", std::move(side));
       }},
      {"window slots 1e300",
       [](Json& p) { p.find("series")->find("windows")->items().at(0).set("slots", 1e300); }},
      {"window tx -3",
       [](Json& p) { p.find("series")->find("windows")->items().at(0).set("tx", -3.0); }},
      {"window margin z 0.5",
       [](Json& p) {
         p.find("series")->find("windows")->items().at(0).find("margin")->set("z", 0.5);
       }},
      {"span 2^64", [](Json& p) { p.find("series")->set("span", 18446744073709551616.0); }},
  };
  for (const auto& [what, edit] : edits) {
    Json bad = probes;
    edit(bad);
    telemetry::ProbeState out;
    err.clear();
    EXPECT_FALSE(telemetry::probesFromJson(bad, out, err)) << what;
    EXPECT_FALSE(err.empty()) << what;

    Json frameBody = body;
    frameBody.set("probes", bad);
    Frame frame;
    ASSERT_TRUE(decodeFrame(frameBody.dump(), frame, err)) << err;
    CellOutcome outcome;
    err.clear();
    EXPECT_FALSE(outcomeFromFrame(frame, outcome, err)) << what;
    EXPECT_NE(err.find("probes"), std::string::npos) << err;

    Json cell;
    ASSERT_TRUE(Json::parse(real.cellFile, cell, err)) << err;
    cell.set("probes", bad);
    std::filesystem::remove(path);
    std::ofstream(path, std::ios::binary) << cell.dump();
    CellResult loaded;
    err.clear();
    EXPECT_FALSE(loadCellResult(path, loaded, err)) << what;
    EXPECT_NE(err.find("probes"), std::string::npos) << err;
  }
  std::filesystem::remove(path);
}

/// Loads `text` as a scenario file.  Whatever loads is validated,
/// described, and must round-trip through its canonical serialization;
/// whatever does not load must say why.  True when it loaded.
bool loadsAsScenario(const std::string& text, const std::string& path) {
  const auto load = [&](const std::string& bytes, ScenarioSpec& spec, std::string& err) {
    std::filesystem::remove(path);
    std::ofstream(path, std::ios::binary) << bytes;
    return loadScenarioFile(spec, path, err);
  };
  ScenarioSpec spec;
  std::string err;
  if (!load(text, spec, err)) {
    EXPECT_FALSE(err.empty()) << "a scenario file failed to load without an error";
    return false;
  }
  (void)validateScenario(spec);
  (void)describeScenario(spec);
  const std::string canonical = scenarioToKeyValues(spec);
  ScenarioSpec again;
  EXPECT_TRUE(load(canonical, again, err)) << err;
  EXPECT_EQ(scenarioToKeyValues(again), canonical);
  return true;
}

/// The `key = value` lines of a canonical scenario serialization.
std::vector<std::pair<std::string, std::string>> scenarioLines(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find(" = ");
    if (eq != std::string::npos) out.emplace_back(line.substr(0, eq), line.substr(eq + 3));
  }
  return out;
}

TEST(Mutation, ScenarioFilesLoadOrFailWithAnError) {
  // Every registered preset's canonical text, mutated whole through the
  // file loader, then one value at a time through applyScenarioKey: with
  // byte mutants of the value and with hostile replacements.
  std::vector<std::string> texts;
  for (const std::string& name : ScenarioRegistry::names()) {
    ScenarioSpec spec;
    ASSERT_TRUE(ScenarioRegistry::find(name, spec));
    texts.push_back(scenarioToKeyValues(spec));
  }
  ASSERT_FALSE(texts.empty());
  const std::string path = testing::TempDir() + "mutation_scenario.txt";
  Mutator mutator(20261020);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % texts.size();
    const std::string& donor = texts[(k + 1) % texts.size()];
    loaded += loadsAsScenario(mutator.mutate(texts[k], donor), path) ? 1 : 0;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
  std::filesystem::remove(path);

  // Empty, non-finite, out-of-range, overflowing and near-miss values.
  static const char* const kHostile[] = {"",      " ",     "nan",   "-nan",     "inf",
                                         "-inf",  "1e400", "-1e400", "4.9e-324", "-0",
                                         "0",     "-1",    "0x10",  "1e",       "2 3",
                                         "9223372036854775808",      "-9223372036854775809",
                                         "4294967297",     "nearfar ", "hier\t",  "exact\r",
                                         "HIER",  "near",  "rayleigh\n"};
  std::set<std::string> keys;
  int applied = 0;
  int refused = 0;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    ScenarioSpec base;
    ASSERT_TRUE(ScenarioRegistry::find(ScenarioRegistry::names()[k], base));
    const auto lines = scenarioLines(texts[k]);
    for (std::size_t j = 0; j < lines.size(); ++j) {
      const auto& [key, value] = lines[j];
      keys.insert(key);
      std::vector<std::string> values(std::begin(kHostile), std::end(kHostile));
      for (int m = 0; m < 8; ++m) {
        values.push_back(mutator.mutate(value, lines[(j + 1) % lines.size()].second));
      }
      for (const std::string& v : values) {
        ScenarioSpec spec = base;
        std::string err;
        if (applyScenarioKey(spec, key, v, err)) {
          ++applied;
          (void)validateScenario(spec);
          (void)scenarioToKeyValues(spec);
        } else {
          ++refused;
          EXPECT_FALSE(err.empty()) << key << " = " << v;
        }
      }
    }
  }
  for (const char* key : {"medium_mode", "near_field", "hier_theta"}) {
    EXPECT_EQ(keys.count(key), 1u) << key;
  }
  EXPECT_GT(applied, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace mcs::campaign
