//! Launch module: orchestrates a data-collection campaign
//! (paper Section 4.1).
//!
//! A campaign specifies the DVFS configurations, the workloads, the number
//! of repeated runs, the worker-thread count and the output path. On
//! backends whose measurements are pure functions of the frequency (the
//! simulator), workloads are profiled **concurrently** through
//! [`GpuBackend::profile_at_clock`] and reassembled in the canonical
//! workload → frequency → run order, so the sample stream is bitwise
//! identical for every thread count. Hardware backends that serialize
//! clock changes take the classic loop, streaming samples to the CSV
//! writer over a crossbeam channel as they are produced — the shape a
//! long-running collection framework needs when a campaign takes hours.

use crate::backend::GpuBackend;
use crate::control::ClockController;
use crate::csv;
use crate::profiler::Profiler;
use crossbeam::channel;
use gpu_model::{MetricSample, PhasedWorkload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of one collection campaign.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// DVFS configurations to sweep (MHz); empty = all used grid states.
    pub frequencies: Vec<f64>,
    /// Repeated runs per (workload, frequency) pair; the paper uses 3.
    pub runs: u32,
    /// Optional CSV output path.
    pub output: Option<PathBuf>,
    /// Worker threads for concurrent collection when the backend supports
    /// it; `0` = auto (the `DVFS_THREADS` environment variable, else all
    /// available cores). Ignored on backends that serialize clock changes.
    pub threads: usize,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        Self {
            frequencies: Vec::new(),
            runs: 3,
            output: None,
            threads: 0,
        }
    }
}

/// A campaign bound to a backend.
pub struct CollectionCampaign<'a, B: GpuBackend + ?Sized> {
    backend: &'a B,
    config: LaunchConfig,
}

impl<'a, B: GpuBackend + ?Sized> CollectionCampaign<'a, B> {
    /// Creates a campaign on `backend`.
    pub fn new(backend: &'a B, config: LaunchConfig) -> Self {
        Self { backend, config }
    }

    /// The frequencies this campaign will sweep.
    pub fn frequencies(&self) -> Vec<f64> {
        if self.config.frequencies.is_empty() {
            self.backend.grid().used()
        } else {
            self.config.frequencies.clone()
        }
    }

    /// Runs the campaign: for every workload × frequency × run, profiles
    /// the execution and collects the sample, in a fixed
    /// workload → frequency → run order. Returns all samples; also writes
    /// the CSV if configured.
    ///
    /// On backends that support concurrent profiling (the simulator),
    /// workloads are fanned out across [`LaunchConfig::threads`] workers
    /// through the side-effect-free [`GpuBackend::profile_at_clock`]
    /// path; results are reassembled in the canonical order, so the
    /// output is **bitwise identical** to the serial sweep for every
    /// thread count. Backends that must serialize real clock changes take
    /// the classic apply-then-profile loop.
    pub fn collect(&self, workloads: &[PhasedWorkload]) -> std::io::Result<Vec<MetricSample>> {
        let freqs = self.frequencies();
        let samples = if self.backend.supports_concurrent_profiling() {
            self.collect_concurrent(workloads, &freqs)
        } else {
            self.collect_serial(workloads, &freqs)
        };

        // Leave the device at its default clock, as the paper's framework
        // does after a campaign.
        self.backend.reset_clock();

        if let Some(path) = &self.config.output {
            csv::write_samples(path, &samples)?;
        }
        Ok(samples)
    }

    /// Classic single-threaded sweep: applies each clock on the device,
    /// profiles every run, and streams the samples to the writer thread
    /// over a channel — the shape a real-hardware campaign needs.
    fn collect_serial(&self, workloads: &[PhasedWorkload], freqs: &[f64]) -> Vec<MetricSample> {
        let controller = ClockController::new(self.backend);
        let profiler = Profiler::new(self.backend);

        let (tx, rx) = channel::unbounded::<MetricSample>();
        let collector = std::thread::spawn(move || {
            let mut all = Vec::new();
            while let Ok(s) = rx.recv() {
                all.push(s);
            }
            all
        });

        for workload in workloads {
            for &f in freqs {
                let applied = controller.apply_nearest(f);
                debug_assert_eq!(applied, f, "campaign frequencies must be on grid");
                for run in 0..self.config.runs {
                    let profile = profiler.profile_run(workload, run);
                    tx.send(profile.sample).expect("collector thread alive");
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    }

    /// Concurrent sweep over the pure profiling path: workloads are
    /// claimed from a shared counter by a fixed pool of scoped workers,
    /// each producing its workload's full frequency × run block; blocks
    /// are then reassembled by workload index, preserving the canonical
    /// sample order exactly.
    fn collect_concurrent(&self, workloads: &[PhasedWorkload], freqs: &[f64]) -> Vec<MetricSample> {
        let threads = obs::worker_threads(self.config.threads)
            .min(workloads.len())
            .max(1);
        // Each workload's block lands on the flight-recorder timeline as
        // one complete event tagged with the workload name, so a trace
        // shows how blocks interleaved across campaign workers.
        let trace_block = obs::trace::intern("campaign.profile_block");
        let arg_workload = obs::trace::intern("workload");
        let profile_block = |workload: &PhasedWorkload| -> Vec<MetricSample> {
            let t0 = obs::trace::now_ns();
            let mut block = Vec::with_capacity(freqs.len() * self.config.runs as usize);
            for &f in freqs {
                let snapped = self.backend.grid().nearest(f);
                debug_assert_eq!(snapped, f, "campaign frequencies must be on grid");
                for run in 0..self.config.runs {
                    let sample = self
                        .backend
                        .profile_at_clock(workload, snapped, run)
                        .expect("backend advertised concurrent profiling");
                    block.push(sample);
                }
            }
            obs::trace::complete(
                trace_block,
                t0,
                &[(
                    arg_workload,
                    obs::trace::ArgValue::Str(obs::trace::intern(&workload.name)),
                )],
            );
            block
        };

        if threads <= 1 {
            return workloads.iter().flat_map(profile_block).collect();
        }

        let next = AtomicUsize::new(0);
        let parent = obs::span::current_path();
        let mut blocks: Vec<(usize, Vec<MetricSample>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let profile_block = &profile_block;
                    let parent = parent.clone();
                    scope.spawn(move || {
                        // Graft the worker under the dispatching thread's
                        // span tree (and the trace timeline).
                        let _span = parent
                            .as_deref()
                            .map(|pp| obs::span::Span::enter_under(pp, "campaign_worker"));
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= workloads.len() {
                                break;
                            }
                            mine.push((i, profile_block(&workloads[i])));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("collection worker panicked"))
                .collect()
        });
        blocks.sort_by_key(|&(i, _)| i);
        blocks.into_iter().flat_map(|(_, block)| block).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimulatorBackend;
    use gpu_model::SignatureBuilder;

    fn workloads() -> Vec<PhasedWorkload> {
        vec![
            PhasedWorkload::single(SignatureBuilder::new("wa").flops(1e13).bytes(1e11).build()),
            PhasedWorkload::single(SignatureBuilder::new("wb").flops(1e11).bytes(1e12).build()),
        ]
    }

    #[test]
    fn sweeps_all_used_frequencies_by_default() {
        let b = SimulatorBackend::ga100();
        let c = CollectionCampaign::new(
            &b,
            LaunchConfig {
                runs: 1,
                ..Default::default()
            },
        );
        let samples = c.collect(&workloads()).unwrap();
        assert_eq!(samples.len(), 2 * 61);
    }

    #[test]
    fn respects_explicit_frequency_list_and_runs() {
        let b = SimulatorBackend::ga100();
        let cfg = LaunchConfig {
            frequencies: vec![510.0, 1410.0],
            runs: 3,
            output: None,
            threads: 0,
        };
        let c = CollectionCampaign::new(&b, cfg);
        let samples = c.collect(&workloads()).unwrap();
        assert_eq!(samples.len(), 2 * 2 * 3);
        assert!(samples
            .iter()
            .all(|s| s.sm_app_clock == 510.0 || s.sm_app_clock == 1410.0));
    }

    #[test]
    fn resets_clock_after_campaign() {
        let b = SimulatorBackend::ga100();
        let cfg = LaunchConfig {
            frequencies: vec![510.0],
            runs: 1,
            output: None,
            threads: 0,
        };
        CollectionCampaign::new(&b, cfg)
            .collect(&workloads())
            .unwrap();
        assert_eq!(b.app_clock(), 1410.0);
    }

    #[test]
    fn writes_csv_when_configured() {
        let dir = std::env::temp_dir().join("gpu_dvfs_launch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.csv");
        let b = SimulatorBackend::ga100();
        let cfg = LaunchConfig {
            frequencies: vec![1410.0],
            runs: 2,
            output: Some(path.clone()),
            threads: 0,
        };
        let samples = CollectionCampaign::new(&b, cfg)
            .collect(&workloads())
            .unwrap();
        let back = crate::csv::read_samples(&path).unwrap();
        assert_eq!(back.len(), samples.len());
        std::fs::remove_file(&path).ok();
    }

    /// Delegating wrapper that hides the simulator's concurrent-profiling
    /// capability, forcing the serial fallback path.
    struct SerialOnly<'a>(&'a SimulatorBackend);

    impl GpuBackend for SerialOnly<'_> {
        fn spec(&self) -> &gpu_model::DeviceSpec {
            self.0.spec()
        }
        fn grid(&self) -> &gpu_model::DvfsGrid {
            self.0.grid()
        }
        fn set_app_clock(&self, mhz: f64) -> Result<(), crate::backend::BackendError> {
            self.0.set_app_clock(mhz)
        }
        fn app_clock(&self) -> f64 {
            self.0.app_clock()
        }
        fn run_profiled(&self, workload: &PhasedWorkload, run: u32) -> MetricSample {
            self.0.run_profiled(workload, run)
        }
    }

    #[test]
    fn concurrent_collection_matches_serial_bitwise() {
        let b = SimulatorBackend::ga100();
        let cfg = LaunchConfig {
            frequencies: vec![510.0, 1005.0, 1410.0],
            runs: 2,
            output: None,
            threads: 4,
        };
        let concurrent = CollectionCampaign::new(&b, cfg.clone())
            .collect(&workloads())
            .unwrap();
        let serial_backend = SerialOnly(&b);
        let serial = CollectionCampaign::new(&serial_backend, cfg)
            .collect(&workloads())
            .unwrap();
        assert_eq!(concurrent, serial);
    }

    #[test]
    fn collection_is_identical_for_every_thread_count() {
        let b = SimulatorBackend::ga100();
        let base = CollectionCampaign::new(
            &b,
            LaunchConfig {
                runs: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .collect(&workloads())
        .unwrap();
        for threads in [2usize, 4, 8] {
            let got = CollectionCampaign::new(
                &b,
                LaunchConfig {
                    runs: 2,
                    threads,
                    ..Default::default()
                },
            )
            .collect(&workloads())
            .unwrap();
            assert_eq!(base, got, "sample stream diverged at {threads} threads");
        }
    }

    #[test]
    fn concurrent_workers_graft_spans_and_trace_blocks() {
        let b = SimulatorBackend::ga100();
        let cfg = LaunchConfig {
            frequencies: vec![510.0, 1410.0],
            runs: 1,
            output: None,
            threads: 2,
        };
        {
            let _root = obs::span::Span::enter("campaign-graft-test");
            CollectionCampaign::new(&b, cfg)
                .collect(&workloads())
                .unwrap();
        }
        let stat = obs::span::stat("campaign-graft-test/campaign_worker")
            .expect("campaign workers graft under the dispatching span");
        assert_eq!(stat.count, 2);
    }

    #[test]
    fn samples_are_grouped_by_workload_then_frequency() {
        let b = SimulatorBackend::ga100();
        let cfg = LaunchConfig {
            frequencies: vec![510.0, 1410.0],
            runs: 1,
            output: None,
            threads: 0,
        };
        let samples = CollectionCampaign::new(&b, cfg)
            .collect(&workloads())
            .unwrap();
        assert_eq!(samples[0].workload, "wa");
        assert_eq!(samples[1].workload, "wa");
        assert_eq!(samples[2].workload, "wb");
    }
}
