#pragma once

// Fixture: a real R2 finding suppressed by an allow comment *with* a written
// justification — the scan must come back clean.
class LegacyCache {
 private:
  // gflint: allow(R2): mirrors a third-party record layout that declares an
  // atomic field; nothing here ever touches it from a second thread.
  std::atomic<int> refs_{0};
  int entries_ = 0;
};
