#include "cic/checker.h"

namespace cicmon::cic {

CodeIntegrityChecker::CodeIntegrityChecker(const CicConfig& config)
    : config_(config),
      hashfu_(hash::make_hash_unit(config.hash_kind, config.hash_key)),
      kind_(hashfu_->kind()),
      rhash_init_(hashfu_->init()),
      iht_(config.iht_entries, config.replace_policy, config.rng_seed) {}

}  // namespace cicmon::cic
