//! Resource organization models: Bricks' "central model" and MONARC's
//! "tier model".
//!
//! "Examples of resource organization in simulation are the 'central
//! model' proposed by the Bricks project or the 'tier model' proposed by
//! the MONARC project." (§3) — "In this \[central\] simulation model it is
//! assumed that all the jobs are processed at a single site. In contrast
//! … the 'tier model', in which jobs are processed according to their
//! hierarchical levels." (§4)

use crate::cpu::{CpuFarm, Discipline, Sharing};
use crate::site::{Site, SiteId};
use crate::storage::StorageElement;
use lsds_net::{NodeKind, Topology};

/// How sites are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// One central execution site; clients only submit (Bricks).
    Central,
    /// Hierarchical tiers; jobs run at their tier level (MONARC).
    Tiered,
    /// No imposed structure (flat peer sites).
    Flat,
}

/// Knobs for the stock grid builders.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Cores in the site's farm.
    pub cores: usize,
    /// Per-core relative speed.
    pub speed: f64,
    /// CPU sharing mode.
    pub sharing: Sharing,
    /// Local queue discipline.
    pub discipline: Discipline,
    /// Disk bytes.
    pub disk: f64,
    /// Price per reference-CPU-second.
    pub price: f64,
}

impl Default for SiteSpec {
    fn default() -> Self {
        SiteSpec {
            cores: 16,
            speed: 1.0,
            sharing: Sharing::Space,
            discipline: Discipline::Fifo,
            disk: 10.0e12,
            price: 1.0,
        }
    }
}

/// A built grid: sites plus the topology they attach to.
pub struct BuiltGrid {
    /// The sites, indexed by `SiteId`.
    pub sites: Vec<Site>,
    /// Network connecting them.
    pub topology: Topology,
    /// The organization used.
    pub organization: Organization,
    /// Parent of each site in a tiered grid (`None` for the root / flat).
    pub parents: Vec<Option<SiteId>>,
}

/// Builds a Bricks-style central grid: one execution site ("the server")
/// and `n_clients` client sites with no local compute that submit over
/// WAN links of `client_bw` bytes/s.
pub fn central_grid(
    n_clients: usize,
    server: SiteSpec,
    client_disk: f64,
    client_bw: f64,
    latency: f64,
) -> BuiltGrid {
    let mut topo = Topology::new();
    let server_node = topo.add_node(NodeKind::Host, "server");
    let mut sites = Vec::new();
    sites.push(Site::new(
        SiteId(0),
        "server",
        0,
        server_node,
        CpuFarm::new(
            server.cores,
            server.speed,
            server.sharing,
            server.discipline,
        ),
        StorageElement::new(server.disk),
        server.price,
    ));
    let mut parents = vec![None];
    for i in 0..n_clients {
        let node = topo.add_node(NodeKind::Host, format!("client{i}"));
        topo.add_duplex(node, server_node, client_bw, latency);
        sites.push(Site::new(
            SiteId(i + 1),
            format!("client{i}"),
            1,
            node,
            // clients have a token farm so local placement stays possible,
            // but the central scheduler never uses it
            CpuFarm::new(1, 1.0e-6, Sharing::Space, Discipline::Fifo),
            StorageElement::new(client_disk),
            f64::INFINITY,
        ));
        parents.push(Some(SiteId(0)));
    }
    BuiltGrid {
        sites,
        topology: topo,
        organization: Organization::Central,
        parents,
    }
}

/// Builds a MONARC-style tiered grid: one T0, `n_t1` tier-1 centers and
/// `t2_per_t1` tier-2 centers under each T1. Link parameters per level.
#[expect(
    clippy::too_many_arguments,
    reason = "each tier and each link level of the MONARC layout is its own parameter"
)]
pub fn tiered_grid(
    t0: SiteSpec,
    n_t1: usize,
    t1: SiteSpec,
    t2_per_t1: usize,
    t2: SiteSpec,
    t0_t1_bw: f64,
    t1_t2_bw: f64,
    latency: f64,
) -> BuiltGrid {
    let mut topo = Topology::new();
    let mut sites = Vec::new();
    let mut parents = Vec::new();

    let t0_node = topo.add_node(NodeKind::Host, "T0");
    sites.push(Site::new(
        SiteId(0),
        "T0",
        0,
        t0_node,
        CpuFarm::new(t0.cores, t0.speed, t0.sharing, t0.discipline),
        StorageElement::new(t0.disk),
        t0.price,
    ));
    parents.push(None);

    for i in 0..n_t1 {
        let t1_node = topo.add_node(NodeKind::Host, format!("T1-{i}"));
        topo.add_duplex(t1_node, t0_node, t0_t1_bw, latency);
        let t1_id = SiteId(sites.len());
        sites.push(Site::new(
            t1_id,
            format!("T1-{i}"),
            1,
            t1_node,
            CpuFarm::new(t1.cores, t1.speed, t1.sharing, t1.discipline),
            StorageElement::new(t1.disk),
            t1.price,
        ));
        parents.push(Some(SiteId(0)));
        for j in 0..t2_per_t1 {
            let t2_node = topo.add_node(NodeKind::Host, format!("T2-{i}-{j}"));
            topo.add_duplex(t2_node, t1_node, t1_t2_bw, latency);
            sites.push(Site::new(
                SiteId(sites.len()),
                format!("T2-{i}-{j}"),
                2,
                t2_node,
                CpuFarm::new(t2.cores, t2.speed, t2.sharing, t2.discipline),
                StorageElement::new(t2.disk),
                t2.price,
            ));
            parents.push(Some(t1_id));
        }
    }
    BuiltGrid {
        sites,
        topology: topo,
        organization: Organization::Tiered,
        parents,
    }
}

/// Builds a flat peer grid: `n` sites around a switch, all equal except
/// for the supplied per-site overrides.
pub fn flat_grid(specs: Vec<SiteSpec>, bw: f64, latency: f64) -> BuiltGrid {
    let n = specs.len();
    let (topo, hosts) = Topology::star(n, bw, latency);
    let sites = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            Site::new(
                SiteId(i),
                format!("site{i}"),
                1,
                hosts[i],
                CpuFarm::new(spec.cores, spec.speed, spec.sharing, spec.discipline),
                StorageElement::new(spec.disk),
                spec.price,
            )
        })
        .collect();
    BuiltGrid {
        sites,
        topology: topo,
        organization: Organization::Flat,
        parents: vec![None; n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_net::mbps;

    #[test]
    fn central_grid_shape() {
        let g = central_grid(4, SiteSpec::default(), 1.0e9, mbps(100.0), 0.01);
        assert_eq!(g.sites.len(), 5);
        assert_eq!(g.organization, Organization::Central);
        assert_eq!(g.parents[0], None);
        assert!(g.parents[1..].iter().all(|p| *p == Some(SiteId(0))));
        assert_eq!(g.topology.node_count(), 5);
    }

    #[test]
    fn tiered_grid_shape() {
        let g = tiered_grid(
            SiteSpec::default(),
            2,
            SiteSpec::default(),
            3,
            SiteSpec::default(),
            mbps(2500.0),
            mbps(622.0),
            0.02,
        );
        // 1 + 2 + 6 sites
        assert_eq!(g.sites.len(), 9);
        assert_eq!(g.sites[0].tier, 0);
        assert_eq!(g.parents[1], Some(SiteId(0)));
        // T2s under first T1 are sites 2,3,4
        assert_eq!(g.parents[2], Some(SiteId(1)));
        let t2_count = g.sites.iter().filter(|s| s.tier == 2).count();
        assert_eq!(t2_count, 6);
    }

    #[test]
    fn flat_grid_shape() {
        let g = flat_grid(vec![SiteSpec::default(); 6], mbps(1000.0), 0.005);
        assert_eq!(g.sites.len(), 6);
        assert_eq!(g.organization, Organization::Flat);
        assert!(g.parents.iter().all(|p| p.is_none()));
    }
}
