//! Ad-hoc cluster provisioning and job execution (simulated).
//!
//! NSDF-Cloud's pitch is "one API call gives you a cluster across academic
//! and commercial clouds". `ClusterRequest` asks for capacity with a cost
//! ceiling, the planner picks nodes across providers (academic first,
//! commercial burst within budget), and `Cluster::run_jobs` executes a bag
//! of compute jobs with per-node speeds on the virtual clock, producing
//! makespan/cost/utilisation accounting.

use crate::provider::{Provider, ProviderKind};
use nsdf_util::{NsdfError, Result, SimClock};

/// A request for an ad-hoc cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRequest {
    /// Nodes wanted.
    pub nodes: u32,
    /// Maximum dollars per hour the requester will pay (0 = academic only).
    pub max_cost_per_hour: f64,
}

/// One provisioned node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Provider the node came from.
    pub provider: String,
    /// Relative speed.
    pub speed: f64,
    /// Dollars per hour.
    pub cost_per_hour: f64,
}

/// A provisioned cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The nodes, in allocation order.
    pub nodes: Vec<Node>,
    /// Virtual seconds spent provisioning (parallel across providers:
    /// the slowest involved provider dominates).
    pub provision_secs: f64,
}

impl Cluster {
    /// Aggregate cost per hour.
    pub fn cost_per_hour(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost_per_hour).sum()
    }
}

/// Plan a cluster across `providers`: academic pools are drained first
/// (free), then the commercial pool bursts while the running cost stays
/// under the ceiling. Errors when the request cannot be met.
pub fn provision(providers: &[Provider], req: &ClusterRequest) -> Result<Cluster> {
    if req.nodes == 0 {
        return Err(NsdfError::invalid("cluster request for zero nodes"));
    }
    for p in providers {
        p.validate()?;
    }
    let mut nodes = Vec::new();
    let mut provision_secs = 0.0f64;
    let mut cost = 0.0f64;

    let mut academic: Vec<&Provider> =
        providers.iter().filter(|p| p.kind == ProviderKind::Academic).collect();
    // Fastest-provisioning academic pools first.
    academic.sort_by(|a, b| a.provision_secs.total_cmp(&b.provision_secs));
    for p in academic {
        while nodes.len() < req.nodes as usize
            && nodes.iter().filter(|n: &&Node| n.provider == p.name).count() < p.max_nodes as usize
        {
            nodes.push(Node { provider: p.name.clone(), speed: p.node_speed, cost_per_hour: 0.0 });
            provision_secs = provision_secs.max(p.provision_secs);
        }
        if nodes.len() == req.nodes as usize {
            break;
        }
    }
    if nodes.len() < req.nodes as usize {
        for p in providers.iter().filter(|p| p.kind == ProviderKind::Commercial) {
            while nodes.len() < req.nodes as usize
                && nodes.iter().filter(|n: &&Node| n.provider == p.name).count()
                    < p.max_nodes as usize
                && cost + p.cost_per_node_hour <= req.max_cost_per_hour + 1e-9
            {
                cost += p.cost_per_node_hour;
                nodes.push(Node {
                    provider: p.name.clone(),
                    speed: p.node_speed,
                    cost_per_hour: p.cost_per_node_hour,
                });
                provision_secs = provision_secs.max(p.provision_secs);
            }
        }
    }
    if nodes.len() < req.nodes as usize {
        return Err(NsdfError::invalid(format!(
            "cannot provision {} nodes within ${:.2}/h (got {})",
            req.nodes,
            req.max_cost_per_hour,
            nodes.len()
        )));
    }
    Ok(Cluster { nodes, provision_secs })
}

/// One job: `work` reference-core-seconds of compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Job id.
    pub id: u64,
    /// Compute demand in reference-core-seconds.
    pub work: f64,
}

/// Accounting for one bag-of-jobs run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Virtual seconds from submission to last completion (includes
    /// provisioning).
    pub makespan_secs: f64,
    /// Dollars spent (cost/hour x busy hours, commercial nodes only).
    pub cost_dollars: f64,
    /// Mean node utilisation in [0, 1] over the compute phase.
    pub utilisation: f64,
    /// Jobs completed.
    pub jobs: usize,
}

impl Cluster {
    /// Execute `jobs` greedily (longest job first, to the earliest-free
    /// node), advancing `clock` by provisioning plus the compute makespan.
    pub fn run_jobs(&self, jobs: &[Job], clock: &SimClock) -> Result<RunReport> {
        if jobs.is_empty() {
            return Err(NsdfError::invalid("no jobs to run"));
        }
        clock.advance_secs(self.provision_secs);
        // LPT scheduling on heterogeneous nodes.
        let mut sorted: Vec<&Job> = jobs.iter().collect();
        sorted.sort_by(|a, b| b.work.total_cmp(&a.work));
        let mut free_at = vec![0.0f64; self.nodes.len()];
        for job in sorted {
            let (idx, _) = free_at
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("cluster has nodes");
            free_at[idx] += job.work / self.nodes[idx].speed;
        }
        let compute_secs = free_at.iter().cloned().fold(0.0, f64::max);
        let busy: f64 = free_at.iter().sum();
        clock.advance_secs(compute_secs);

        let hours = (self.provision_secs + compute_secs) / 3600.0;
        Ok(RunReport {
            makespan_secs: self.provision_secs + compute_secs,
            cost_dollars: self.cost_per_hour() * hours,
            utilisation: if compute_secs > 0.0 {
                busy / (compute_secs * self.nodes.len() as f64)
            } else {
                1.0
            },
            jobs: jobs.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: u64, work: f64) -> Vec<Job> {
        (0..n).map(|id| Job { id, work }).collect()
    }

    #[test]
    fn academic_first_provisioning() {
        let providers = Provider::nsdf_federation();
        let c =
            provision(&providers, &ClusterRequest { nodes: 10, max_cost_per_hour: 0.0 }).unwrap();
        assert_eq!(c.nodes.len(), 10);
        assert_eq!(c.cost_per_hour(), 0.0);
        assert!(c.nodes.iter().all(|n| n.cost_per_hour == 0.0));
    }

    #[test]
    fn commercial_burst_respects_budget() {
        let providers = Provider::nsdf_federation();
        // 16+8+12 = 36 academic nodes; asking for 40 needs 4 commercial.
        let c =
            provision(&providers, &ClusterRequest { nodes: 40, max_cost_per_hour: 5.0 }).unwrap();
        assert_eq!(c.nodes.len(), 40);
        let commercial = c.nodes.iter().filter(|n| n.provider == "commercial").count();
        assert_eq!(commercial, 4);
        assert!(c.cost_per_hour() <= 5.0);
        // Too tight a budget fails.
        assert!(
            provision(&providers, &ClusterRequest { nodes: 40, max_cost_per_hour: 1.0 }).is_err()
        );
    }

    #[test]
    fn oversized_requests_fail() {
        let providers = Provider::nsdf_federation();
        assert!(
            provision(&providers, &ClusterRequest { nodes: 500, max_cost_per_hour: 1e6 }).is_err()
        );
        assert!(
            provision(&providers, &ClusterRequest { nodes: 0, max_cost_per_hour: 0.0 }).is_err()
        );
    }

    #[test]
    fn more_nodes_shrink_makespan() {
        let providers = Provider::nsdf_federation();
        let work = jobs(64, 600.0);
        let run = |n: u32| {
            let c = provision(&providers, &ClusterRequest { nodes: n, max_cost_per_hour: 50.0 })
                .unwrap();
            let clock = SimClock::new();
            c.run_jobs(&work, &clock).unwrap().makespan_secs
        };
        let small = run(4);
        let large = run(32);
        assert!(large < small / 4.0, "4 nodes {small}s vs 32 nodes {large}s");
    }

    #[test]
    fn utilisation_and_cost_accounting() {
        let providers = Provider::nsdf_federation();
        let c =
            provision(&providers, &ClusterRequest { nodes: 40, max_cost_per_hour: 10.0 }).unwrap();
        let clock = SimClock::new();
        let report = c.run_jobs(&jobs(400, 360.0), &clock).unwrap();
        assert_eq!(report.jobs, 400);
        assert!(report.utilisation > 0.8, "LPT on uniform jobs: {}", report.utilisation);
        assert!(report.cost_dollars > 0.0);
        assert!((clock.now_secs() - report.makespan_secs).abs() < 1e-9);
        assert!(c.run_jobs(&[], &clock).is_err());
    }

    #[test]
    fn heterogeneous_speeds_balance() {
        // One fast commercial node plus slow academic nodes: LPT must load
        // the fast node with more work.
        let providers = Provider::nsdf_federation();
        let c =
            provision(&providers, &ClusterRequest { nodes: 37, max_cost_per_hour: 1.0 }).unwrap();
        let clock = SimClock::new();
        let report = c.run_jobs(&jobs(100, 100.0), &clock).unwrap();
        assert!(report.utilisation > 0.7);
    }

    #[test]
    fn provisioning_charges_clock_once() {
        let providers = Provider::nsdf_federation();
        let c =
            provision(&providers, &ClusterRequest { nodes: 2, max_cost_per_hour: 0.0 }).unwrap();
        let clock = SimClock::new();
        c.run_jobs(&jobs(2, 1.0), &clock).unwrap();
        // Jetstream provisions in 120 s; compute is ~1 s.
        assert!(clock.now_secs() >= 120.0 && clock.now_secs() < 130.0);
    }
}
