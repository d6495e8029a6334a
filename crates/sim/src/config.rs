//! Simulator configuration.

/// All tunables of the storage-system simulator.
///
/// Defaults model a mid-size Dorado V6 node: 32 cores, 8 MiB/interval
/// per-core capability, 45 % cache-miss rate, a 50 % capability penalty on
/// the interval after a core migrates, and a Poisson(0.5) count of
/// transiently idle cores per interval. Write-back costs exceed 1× the
/// payload (`kv_write_cost` 1.3, `rv_write_cost` 0.8): storage arrays pay
/// write amplification for metadata updates and RAID parity, which is what
/// makes read-heavy and write-heavy phases demand genuinely different core
/// allocations.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Total number of CPU cores `N` across all levels.
    pub total_cores: usize,
    /// Initial allocation `[NORMAL, KV, RV]`; must sum to `total_cores`.
    pub initial_allocation: [usize; 3],
    /// Minimum cores a level may hold; migrations that would violate this
    /// are treated as no-ops and counted in the metrics.
    pub min_cores_per_level: usize,
    /// Per-core maximum processing capability `m`, in KiB per interval
    /// (Definition 2: the maximum *sum of IO request sizes* per interval).
    pub core_capability_kib: f64,
    /// Cache-miss probability `C` (Definition 3).
    pub cache_miss_rate: f64,
    /// Fraction of a migrated core's capability lost during the interval
    /// after its migration ("a certain percentage of performance loss").
    pub migration_penalty: f64,
    /// Mean of the Poisson distribution governing how many cores are
    /// transiently idle in each interval (paper §4.1).
    pub idle_lambda: f64,
    /// KV-level work per KiB of read-miss volume (fetch path).
    pub kv_read_cost: f64,
    /// RV-level work per KiB of read-miss volume (fetch path).
    pub rv_read_cost: f64,
    /// KV-level work per KiB of write volume (write-back path).
    pub kv_write_cost: f64,
    /// RV-level work per KiB of write volume (write-back path).
    pub rv_write_cost: f64,
    /// Hard cap on simulated intervals per episode; exceeding it marks the
    /// episode as truncated (guards against non-terminating configurations).
    pub max_intervals: usize,
    /// Normalisation constant for the request count in observations.
    pub requests_norm: f64,
    /// If true, a migration out of a level whose queue still holds work is
    /// denied (strict reading of "a core must finish all the IO requests
    /// assigned to it before migration"); if false the migration proceeds
    /// and the penalty models the hand-over cost. Default false.
    pub strict_migration: bool,
    /// Record per-interval history (needed for interpretation plots; off by
    /// default to keep training cheap).
    pub record_history: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            total_cores: 32,
            initial_allocation: [18, 7, 7],
            min_cores_per_level: 1,
            core_capability_kib: 8192.0,
            cache_miss_rate: 0.45,
            migration_penalty: 0.5,
            idle_lambda: 0.5,
            kv_read_cost: 0.5,
            rv_read_cost: 0.35,
            kv_write_cost: 1.3,
            rv_write_cost: 0.8,
            max_intervals: 100_000,
            requests_norm: 8192.0,
            strict_migration: false,
            record_history: false,
        }
    }
}

impl SimConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_cores == 0 {
            return Err("total_cores must be positive".into());
        }
        let sum: usize = self.initial_allocation.iter().sum();
        if sum != self.total_cores {
            return Err(format!(
                "initial_allocation sums to {sum}, expected total_cores = {}",
                self.total_cores
            ));
        }
        if self
            .initial_allocation
            .iter()
            .any(|&c| c < self.min_cores_per_level)
        {
            return Err("initial allocation violates min_cores_per_level".into());
        }
        if self.core_capability_kib <= 0.0 {
            return Err("core_capability_kib must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.cache_miss_rate) {
            return Err("cache_miss_rate must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.migration_penalty) {
            return Err("migration_penalty must be in [0, 1]".into());
        }
        if self.idle_lambda < 0.0 {
            return Err("idle_lambda must be non-negative".into());
        }
        for (name, v) in [
            ("kv_read_cost", self.kv_read_cost),
            ("rv_read_cost", self.rv_read_cost),
            ("kv_write_cost", self.kv_write_cost),
            ("rv_write_cost", self.rv_write_cost),
        ] {
            if v < 0.0 {
                return Err(format!("{name} must be non-negative"));
            }
        }
        if self.max_intervals == 0 {
            return Err("max_intervals must be positive".into());
        }
        if self.requests_norm <= 0.0 {
            return Err("requests_norm must be positive".into());
        }
        Ok(())
    }

    /// Ideal aggregate capability `N × m` (Definition 2), in KiB/interval.
    pub fn ideal_capability_kib(&self) -> f64 {
        self.total_cores as f64 * self.core_capability_kib
    }

    /// A deterministic variant used by tests: no idle cores, history on.
    pub fn deterministic() -> Self {
        Self {
            idle_lambda: 0.0,
            record_history: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn allocation_must_sum_to_total() {
        let cfg = SimConfig {
            initial_allocation: [16, 8, 7],
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn miss_rate_outside_unit_interval_rejected() {
        let cfg = SimConfig {
            cache_miss_rate: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn negative_costs_rejected() {
        let cfg = SimConfig {
            kv_write_cost: -0.1,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ideal_capability_is_n_times_m() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.ideal_capability_kib(), 32.0 * 8192.0);
    }

    #[test]
    fn min_cores_constraint_checked_at_init() {
        let cfg = SimConfig {
            initial_allocation: [30, 1, 1],
            min_cores_per_level: 2,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }
}
