#include "util/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace csc {
namespace {

// Applies env-spec activation exactly once, the first time any site touches
// the registry. Parse errors are reported to stderr but never fatal: a typo
// in CSC_FAILPOINTS must not take down a production process.
void ActivateFromEnvOnce(Failpoints& fp) {
  static const bool done = [&fp] {
    const char* spec = std::getenv("CSC_FAILPOINTS");
    if (spec != nullptr && spec[0] != '\0') {
      std::string error;
      if (!fp.ParseSpec(spec, &error)) {
        std::fprintf(stderr, "csc: ignoring malformed CSC_FAILPOINTS: %s\n",
                     error.c_str());
      }
    }
    return true;
  }();
  (void)done;
}

bool ParseU32(const std::string& text, uint32_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > UINT32_MAX) return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t next = value * 10 + static_cast<uint64_t>(c - '0');
    if (next < value) return false;
    value = next;
  }
  *out = value;
  return true;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

FailpointSite::FailpointSite(const char* name) : name_(name) {
  Failpoints::Instance().Register(this);
}

FailpointFire FailpointSite::Evaluate() {
  return Failpoints::Instance().EvaluateSlow(this);
}

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();  // never destroyed
  ActivateFromEnvOnce(*instance);
  return *instance;
}

Failpoints::Failpoints() = default;

void Failpoints::Register(FailpointSite* site) {
  MutexLock lock(mu_);
  sites_.push_back(site);
  for (const auto& entry : actions_) {
    if (entry.first == site->name()) {
      site->armed_.store(entry.second.mode != FailpointMode::kOff,
                         std::memory_order_relaxed);
      break;
    }
  }
}

void Failpoints::Set(const std::string& name, const FailpointAction& action) {
  MutexLock lock(mu_);
  bool found = false;
  for (auto& entry : actions_) {
    if (entry.first == name) {
      entry.second = action;
      found = true;
      break;
    }
  }
  if (!found) actions_.emplace_back(name, action);
  const bool arm = action.mode != FailpointMode::kOff;
  for (FailpointSite* site : sites_) {
    if (site->name() == name) {
      site->armed_.store(arm, std::memory_order_relaxed);
    }
  }
}

void Failpoints::Clear(const std::string& name) {
  MutexLock lock(mu_);
  actions_.erase(
      std::remove_if(actions_.begin(), actions_.end(),
                     [&](const auto& entry) { return entry.first == name; }),
      actions_.end());
  for (FailpointSite* site : sites_) {
    if (site->name() == name) {
      site->armed_.store(false, std::memory_order_relaxed);
    }
  }
}

void Failpoints::ClearAll() {
  MutexLock lock(mu_);
  actions_.clear();
  for (FailpointSite* site : sites_) {
    site->armed_.store(false, std::memory_order_relaxed);
  }
}

FailpointFire Failpoints::EvaluateSlow(FailpointSite* site) {
  FailpointAction fired;
  {
    MutexLock lock(mu_);
    FailpointAction* action = nullptr;
    for (auto& entry : actions_) {
      if (entry.first == site->name()) {
        action = &entry.second;
        break;
      }
    }
    // Raced with Clear/ClearAll: the site was disarmed between the fast
    // path and here. Nothing fires.
    if (action == nullptr || action->mode == FailpointMode::kOff) {
      site->armed_.store(false, std::memory_order_relaxed);
      return FailpointFire{};
    }
    if (action->countdown > 1) {
      --action->countdown;
      return FailpointFire{};
    }
    fired = *action;
    action->mode = FailpointMode::kOff;
    for (FailpointSite* other : sites_) {
      if (other->name() == site->name()) {
        other->armed_.store(false, std::memory_order_relaxed);
      }
    }
  }
  switch (fired.mode) {
    case FailpointMode::kError:
      return FailpointFire{true, UINT64_MAX};
    case FailpointMode::kShortWrite:
      return FailpointFire{true, fired.keep_bytes};
    case FailpointMode::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fired.delay_ms));
      return FailpointFire{};
    case FailpointMode::kAbort:
      // Die like SIGKILL as far as user code can tell: no unwinding, no
      // atexit handlers, no stream flushing. The crash-torture driver keys
      // on this exit code.
      std::fflush(nullptr);  // keep test-driver prints, not user buffers
      std::_Exit(134);
    case FailpointMode::kThrow:
      throw std::runtime_error("failpoint " + site->name() + " threw");
    case FailpointMode::kOff:
      break;
  }
  return FailpointFire{};
}

bool Failpoints::ParseSpec(const std::string& spec, std::string* error) {
  for (const std::string& entry : SplitOn(spec, ',')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) *error = "expected name=mode in '" + entry + "'";
      return false;
    }
    const std::string name = entry.substr(0, eq);
    std::vector<std::string> parts = SplitOn(entry.substr(eq + 1), ':');
    FailpointAction action;
    const std::string& mode = parts[0];
    if (mode == "error") {
      action.mode = FailpointMode::kError;
    } else if (mode == "short-write") {
      action.mode = FailpointMode::kShortWrite;
    } else if (mode == "delay") {
      action.mode = FailpointMode::kDelay;
    } else if (mode == "abort") {
      action.mode = FailpointMode::kAbort;
    } else if (mode == "throw") {
      action.mode = FailpointMode::kThrow;
    } else if (mode == "off") {
      action.mode = FailpointMode::kOff;
    } else {
      if (error != nullptr) {
        *error = "unknown mode '" + mode + "' for '" + name + "'";
      }
      return false;
    }
    for (size_t i = 1; i < parts.size(); i += 2) {
      if (i + 1 >= parts.size()) {
        if (error != nullptr) {
          *error = "dangling param '" + parts[i] + "' for '" + name + "'";
        }
        return false;
      }
      const std::string& key = parts[i];
      const std::string& value = parts[i + 1];
      bool ok = false;
      if (key == "countdown") {
        ok = ParseU32(value, &action.countdown) && action.countdown > 0;
      } else if (key == "ms") {
        ok = ParseU32(value, &action.delay_ms);
      } else if (key == "keep") {
        ok = ParseU64(value, &action.keep_bytes);
      } else {
        if (error != nullptr) {
          *error = "unknown param '" + key + "' for '" + name + "'";
        }
        return false;
      }
      if (!ok) {
        if (error != nullptr) {
          *error = "bad value '" + value + "' for param '" + key + "' of '" +
                   name + "'";
        }
        return false;
      }
    }
    Set(name, action);
  }
  return true;
}

std::vector<std::string> Failpoints::RegisteredNames() const {
  std::vector<std::string> names;
  {
    MutexLock lock(mu_);
    names.reserve(sites_.size());
    for (const FailpointSite* site : sites_) names.push_back(site->name());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

bool Failpoints::IsRegistered(const std::string& name) const {
  MutexLock lock(mu_);
  for (const FailpointSite* site : sites_) {
    if (site->name() == name) return true;
  }
  return false;
}

}  // namespace csc
