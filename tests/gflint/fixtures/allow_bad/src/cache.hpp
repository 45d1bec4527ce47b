#pragma once

// Fixture: a bare allow with no justification. The suppression is void (the
// R2 finding stands) and the allow itself is an A1 hygiene finding.
class LegacyCache {
 private:
  // gflint: allow(R2):
  std::thread worker_;
  int entries_ = 0;
};
