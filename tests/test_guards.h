// RAII guards for the process-global knobs tests are allowed to touch.
//
// The test binaries run under `ctest --schedule-random -j`: any test that
// flips a process-global default -- the event-queue backend override, the
// GF(256) kernel backend, or an environment variable a resolver reads --
// MUST restore it on every exit path, or an unrelated test scheduled after
// it inherits the setting and fails (or worse, silently tests the wrong
// configuration). These guards make the save/restore automatic; tests
// should never call the raw setters directly.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "fec/gf256_simd.h"
#include "netsim/event_queue.h"

namespace jqos::testing {

// Forces the process-default EventQueue backend for the guard's lifetime,
// then clears the override so later constructions resolve JQOS_EVQ_BACKEND
// (the CI forced-backend matrices) or the built-in default again.
class EvqBackendGuard {
 public:
  explicit EvqBackendGuard(netsim::EvqBackend backend) {
    netsim::evq_set_default_backend(backend);
  }
  ~EvqBackendGuard() { netsim::evq_clear_default_backend(); }
  EvqBackendGuard(const EvqBackendGuard&) = delete;
  EvqBackendGuard& operator=(const EvqBackendGuard&) = delete;
};

// Pins the GF(256) kernel backend, restoring whatever backend was active
// before (the SIMD tests iterate backends; a mid-test failure must not leave
// the scalar kernel installed for the throughput-sensitive tests after it).
class GfBackendGuard {
 public:
  GfBackendGuard() : saved_(fec::gf_backend()) {}
  explicit GfBackendGuard(fec::GfBackend backend) : saved_(fec::gf_backend()) {
    fec::gf_set_backend(backend);
  }
  ~GfBackendGuard() { fec::gf_set_backend(saved_); }
  GfBackendGuard(const GfBackendGuard&) = delete;
  GfBackendGuard& operator=(const GfBackendGuard&) = delete;

 private:
  fec::GfBackend saved_;
};

// Sets (or unsets, via nullopt) one environment variable, restoring the
// prior value on destruction. Used by the knob-hardening tests to exercise
// JQOS_SIM_THREADS / JQOS_EVQ_BACKEND parsing without
// leaking the value into tests scheduled after them.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, std::optional<std::string> value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    apply(value);
  }
  ~EnvVarGuard() { apply(saved_); }
  EnvVarGuard(const EnvVarGuard&) = delete;
  EnvVarGuard& operator=(const EnvVarGuard&) = delete;

 private:
  void apply(const std::optional<std::string>& v) {
    if (v) {
      ::setenv(name_.c_str(), v->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace jqos::testing
