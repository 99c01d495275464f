#include "convbound/tune/registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "convbound/util/check.hpp"

namespace convbound {

namespace {

std::string canonical_id(const std::string& name) {
  if (name == "random") return "random";
  if (name == "sa" || name == "simulated-annealing") return "sa";
  if (name == "ga" || name == "genetic") return "ga";
  if (name == "ate" || name == "ate(ours)") return "ate";
  if (name == "bnb" || name == "branch-and-bound") return "bnb";
  CB_CHECK_MSG(false, "unknown tuner '" << name
                                        << "' (bnb|ate|sa|ga|random)");
  return {};
}

}  // namespace

std::vector<std::string> tuner_names() {
  return {"bnb", "ate", "sa", "ga", "random"};
}

std::unique_ptr<Tuner> make_tuner(const std::string& name,
                                  const TunerOptions& opts) {
  const std::string id = canonical_id(name);
  if (id == "random")
    return std::make_unique<RandomTuner>(opts.seed);
  if (id == "sa")
    return std::make_unique<SimulatedAnnealingTuner>(opts.seed);
  if (id == "ga")
    return std::make_unique<GeneticTuner>(opts.seed);
  if (id == "ate") {
    AteTuner::Params params = opts.ate;
    params.seeds.insert(params.seeds.end(), opts.seeds.begin(),
                        opts.seeds.end());
    return std::make_unique<AteTuner>(opts.seed, params);
  }
  BnbOptions bnb;
  bnb.seeds = opts.seeds;
  return std::make_unique<BranchAndBoundTuner>(bnb);
}

std::string serialize_checkpoint(const Tuner& tuner,
                                 const std::string& domain_key,
                                 std::uint64_t domain_size) {
  CB_CHECK_MSG(domain_key.find('\n') == std::string::npos,
               "checkpoint key must not contain newlines");
  std::ostringstream os;
  os << "convbound-checkpoint v1\n";
  os << "key " << domain_key << '\n';
  os << "domain-size " << domain_size << '\n';
  os << tuner.save_state();
  return os.str();
}

std::unique_ptr<Tuner> load_checkpoint(const std::string& text,
                                       const SearchDomain& domain,
                                       const std::string& domain_key,
                                       const TunerOptions& opts) {
  std::istringstream in(text);
  std::string line;
  CB_CHECK_MSG(std::getline(in, line) && line == "convbound-checkpoint v1",
               "not a convbound checkpoint (bad header '" << line << "')");
  CB_CHECK_MSG(std::getline(in, line) && line.rfind("key ", 0) == 0,
               "checkpoint missing key line");
  const std::string stored_key = line.substr(4);
  CB_CHECK_MSG(stored_key == domain_key,
               "checkpoint is for a different search:\n  stored:  "
                   << stored_key << "\n  current: " << domain_key);
  CB_CHECK_MSG(std::getline(in, line) && line.rfind("domain-size ", 0) == 0,
               "checkpoint missing domain-size line");
  const std::uint64_t stored_size =
      std::strtoull(line.c_str() + 12, nullptr, 10);
  CB_CHECK_MSG(stored_size == domain.size(),
               "checkpoint domain has " << stored_size
                                        << " configurations, current has "
                                        << domain.size()
                                        << " (different pruning options?)");

  // The remainder is the tuner state; its second line "id <x>" names the
  // strategy to rebuild.
  const std::string state = text.substr(static_cast<std::size_t>(in.tellg()));
  tunestate::Reader peek(state);
  peek.line("convbound-tuner-state");
  std::string id;
  peek.line("id") >> id;
  std::unique_ptr<Tuner> tuner = make_tuner(id, opts);
  tuner->load_state(domain, state);
  return tuner;
}

void save_checkpoint_file(const std::string& path, const Tuner& tuner,
                          const std::string& domain_key,
                          std::uint64_t domain_size) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    CB_CHECK_MSG(out.good(), "cannot write checkpoint file " << tmp);
    out << serialize_checkpoint(tuner, domain_key, domain_size);
    CB_CHECK_MSG(out.good(), "short write to checkpoint file " << tmp);
  }
  CB_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move checkpoint into place at " << path);
}

std::unique_ptr<Tuner> load_checkpoint_file(const std::string& path,
                                            const SearchDomain& domain,
                                            const std::string& domain_key,
                                            const TunerOptions& opts) {
  std::ifstream in(path);
  CB_CHECK_MSG(in.good(), "cannot read checkpoint file " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return load_checkpoint(buf.str(), domain, domain_key, opts);
}

}  // namespace convbound
