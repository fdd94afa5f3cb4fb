//! Open Jackson networks.
//!
//! A network of M/M/c stations with Markovian routing has a product-form
//! solution: solve the traffic equations `λ_i = γ_i + Σ_j λ_j p_{ji}`,
//! then treat each station as an independent M/M/c_i with arrival rate
//! λ_i. This is the analytic model for multi-hop grid paths (job chain:
//! broker → CPU → storage) in validation experiment E11.

use crate::markov::MMC;

/// Per-node solution of a Jackson network.
#[derive(Debug, Clone, Copy)]
pub struct NodeResult {
    /// Effective arrival rate λ_i from the traffic equations.
    pub lambda: f64,
    /// Per-server utilization.
    pub rho: f64,
    /// Mean number in system at this node.
    pub l: f64,
    /// Mean time in system per visit.
    pub w: f64,
}

/// An open Jackson network.
#[derive(Debug, Clone)]
pub struct JacksonNetwork {
    /// External Poisson arrival rate into each node (γ_i).
    pub external: Vec<f64>,
    /// Routing matrix: `routing[i][j]` = P(job leaving i goes to j); row
    /// sums ≤ 1, the deficit is the departure probability.
    pub routing: Vec<Vec<f64>>,
    /// Per-node service rate μ_i.
    pub mu: Vec<f64>,
    /// Per-node server count c_i.
    pub servers: Vec<u32>,
}

impl JacksonNetwork {
    /// Validates shapes and probability constraints.
    pub fn new(
        external: Vec<f64>,
        routing: Vec<Vec<f64>>,
        mu: Vec<f64>,
        servers: Vec<u32>,
    ) -> Self {
        let n = external.len();
        assert_eq!(routing.len(), n);
        assert_eq!(mu.len(), n);
        assert_eq!(servers.len(), n);
        for row in &routing {
            assert_eq!(row.len(), n);
            let sum: f64 = row.iter().sum();
            assert!(
                row.iter().all(|&p| (0.0..=1.0).contains(&p)) && sum <= 1.0 + 1e-12,
                "bad routing row"
            );
        }
        JacksonNetwork {
            external,
            routing,
            mu,
            servers,
        }
    }

    /// Solves the traffic equations by fixed-point iteration (the open
    /// network's spectral radius < 1 guarantees convergence).
    #[expect(clippy::needless_range_loop, reason = "matrix indexing reads clearer")]
    pub fn traffic(&self) -> Vec<f64> {
        let n = self.external.len();
        let mut lambda = self.external.clone();
        for _ in 0..10_000 {
            let mut next = self.external.clone();
            for j in 0..n {
                for i in 0..n {
                    next[j] += lambda[i] * self.routing[i][j];
                }
            }
            let diff: f64 = lambda.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            lambda = next;
            if diff < 1e-13 {
                break;
            }
        }
        lambda
    }

    /// Solves every node; panics if any node is unstable.
    pub fn solve(&self) -> Vec<NodeResult> {
        let lambda = self.traffic();
        lambda
            .iter()
            .enumerate()
            .map(|(i, &li)| {
                if li <= 0.0 {
                    return NodeResult {
                        lambda: 0.0,
                        rho: 0.0,
                        l: 0.0,
                        w: 0.0,
                    };
                }
                let station = MMC::new(li, self.mu[i], self.servers[i]);
                NodeResult {
                    lambda: li,
                    rho: station.rho(),
                    l: station.l(),
                    w: station.w(),
                }
            })
            .collect()
    }

    /// Total mean number of jobs in the network.
    pub fn total_l(&self) -> f64 {
        self.solve().iter().map(|r| r.l).sum()
    }

    /// Mean end-to-end sojourn time of an external arrival (Little over
    /// the whole network).
    pub fn total_w(&self) -> f64 {
        let gamma: f64 = self.external.iter().sum();
        assert!(gamma > 0.0, "no external arrivals");
        self.total_l() / gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::MM1;

    #[test]
    fn single_node_is_mm1() {
        let net = JacksonNetwork::new(vec![0.5], vec![vec![0.0]], vec![1.0], vec![1]);
        let r = &net.solve()[0];
        let mm1 = MM1::new(0.5, 1.0);
        assert!((r.l - mm1.l()).abs() < 1e-9);
        assert!((r.w - mm1.w()).abs() < 1e-9);
    }

    #[test]
    fn tandem_line_traffic() {
        // A → B → out: both see the same λ
        let net = JacksonNetwork::new(
            vec![0.4, 0.0],
            vec![vec![0.0, 1.0], vec![0.0, 0.0]],
            vec![1.0, 2.0],
            vec![1, 1],
        );
        let lambda = net.traffic();
        assert!((lambda[0] - 0.4).abs() < 1e-9);
        assert!((lambda[1] - 0.4).abs() < 1e-9);
        // end-to-end W = W1 + W2 for a tandem line
        let w = net.total_w();
        let expect = MM1::new(0.4, 1.0).w() + MM1::new(0.4, 2.0).w();
        assert!((w - expect).abs() < 1e-9);
    }

    #[test]
    fn feedback_loop_inflates_traffic() {
        // one node, 30% feedback: λ = γ/(1−0.3)
        let net = JacksonNetwork::new(vec![0.35], vec![vec![0.3]], vec![1.0], vec![1]);
        let lambda = net.traffic();
        assert!((lambda[0] - 0.5).abs() < 1e-9, "{}", lambda[0]);
    }

    #[test]
    fn three_node_grid_chain() {
        // broker → {cpu 70%, storage 30%}; cpu → storage 50%, out 50%;
        // storage → out
        let net = JacksonNetwork::new(
            vec![1.0, 0.0, 0.0],
            vec![
                vec![0.0, 0.7, 0.3],
                vec![0.0, 0.0, 0.5],
                vec![0.0, 0.0, 0.0],
            ],
            vec![2.0, 1.0, 1.5],
            vec![1, 2, 1],
        );
        let lambda = net.traffic();
        assert!((lambda[0] - 1.0).abs() < 1e-9);
        assert!((lambda[1] - 0.7).abs() < 1e-9);
        assert!((lambda[2] - (0.3 + 0.35)).abs() < 1e-9);
        assert!(net.total_l() > 0.0);
        assert!(net.total_w() > 0.0);
    }

    #[test]
    fn multi_server_node_uses_mmc() {
        let net = JacksonNetwork::new(vec![2.0], vec![vec![0.0]], vec![1.0], vec![3]);
        let r = &net.solve()[0];
        let mmc = MMC::new(2.0, 1.0, 3);
        assert!((r.l - mmc.l()).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn unstable_node_panics() {
        let net = JacksonNetwork::new(vec![2.0], vec![vec![0.0]], vec![1.0], vec![1]);
        net.solve();
    }
}
