#include "src/obs/compile_profile.h"

#include <cstdio>

namespace emcalc::obs {

const CompilePhase* CompilePhase::Find(std::string_view child_name) const {
  for (const CompilePhase& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

uint64_t ChildWallNs(const CompilePhase& phase) {
  uint64_t sum = 0;
  for (const CompilePhase& c : phase.children) sum += c.wall_ns;
  return sum;
}

namespace {

void Render(const CompilePhase& p, uint64_t root_ns, int depth,
            std::string& out) {
  std::string label(static_cast<size_t>(depth) * 2, ' ');
  label += p.name;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%-28s %9.3fms", label.c_str(),
                static_cast<double>(p.wall_ns) / 1e6);
  out += buf;
  if (depth > 0 && root_ns > 0) {
    std::snprintf(buf, sizeof(buf), " %5.1f%%",
                  100.0 * static_cast<double>(p.wall_ns) /
                      static_cast<double>(root_ns));
    out += buf;
  }
  if (!p.detail.empty()) out += "  " + p.detail;
  out += "\n";
  for (const CompilePhase& c : p.children) Render(c, root_ns, depth + 1, out);
}

void Flatten(const CompilePhase& p, const std::string& prefix,
             std::vector<std::pair<std::string, uint64_t>>& out) {
  for (const CompilePhase& c : p.children) {
    std::string path = prefix.empty() ? c.name : prefix + "." + c.name;
    out.emplace_back(path, c.wall_ns);
    Flatten(c, path, out);
  }
}

}  // namespace

std::string CompileProfileToString(const CompilePhase& root) {
  std::string out;
  Render(root, root.wall_ns, 0, out);
  return out;
}

std::vector<std::pair<std::string, uint64_t>> FlattenPhases(
    const CompilePhase& root) {
  std::vector<std::pair<std::string, uint64_t>> out;
  Flatten(root, "", out);
  return out;
}

PhaseTimer::PhaseTimer(CompilePhase* parent, const char* name,
                       const char* span_name)
    : span_(span_name), start_ns_(NowNs()) {
  parent->children.emplace_back();
  phase_ = &parent->children.back();
  phase_->name = name;
}

PhaseTimer::~PhaseTimer() { phase_->wall_ns = NowNs() - start_ns_; }

}  // namespace emcalc::obs
