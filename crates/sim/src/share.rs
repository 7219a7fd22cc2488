//! Who pays for a stage's K-FAC work (paper §3.2).

use crate::KindCost;
use pipefisher_pipeline::TaskGraph;

/// What each device pays for K-FAC: the work the bubble assignment places
/// on it and the closed-form step model charges it. A stage's inversion is
/// divided among its `W · hosts` copies; each host pays the stage's
/// precondition and, when it has more than one copy, its sync-curvature;
/// every device pays sync-grad once per step when any stage does.
#[derive(Debug, Clone, PartialEq)]
pub struct KfacShare {
    /// Per stage, its hosts ([`TaskGraph::stage_hosts`]).
    pub hosts: Vec<Vec<usize>>,
    /// Per device, the stages it hosts, ascending.
    pub stages_of: Vec<Vec<usize>>,
    /// Per stage, its copies: `W` replicas on each host.
    pub copies: Vec<usize>,
    /// Per stage, the sync-curvature each host pays per refresh.
    pub sync_curv: Vec<f64>,
    /// The sync-grad every device pays per step.
    pub sync_grad: f64,
    /// Per device, its precondition per step.
    pub prec: Vec<f64>,
}

impl KfacShare {
    /// The share of `costs` each device of `graph` pays, with `w`
    /// data-parallel replicas of every stage.
    pub fn new(graph: &TaskGraph, w: usize, costs: &KindCost) -> Self {
        let hosts = graph.stage_hosts();
        let mut stages_of = vec![Vec::new(); graph.n_devices()];
        for (stage, stage_hosts) in hosts.iter().enumerate() {
            stage_hosts
                .iter()
                .for_each(|&dev| stages_of[dev].push(stage));
        }
        let copies: Vec<usize> = hosts.iter().map(|h| w * h.len()).collect();
        let paid = |copies: usize, t: f64| if copies > 1 { t } else { 0.0 };
        let prec = stages_of.iter().map(|s| costs.t_prec * s.len() as f64);
        KfacShare {
            sync_curv: copies.iter().map(|&n| paid(n, costs.t_sync_curv)).collect(),
            sync_grad: paid(copies.iter().copied().max().unwrap_or(0), costs.t_sync_grad),
            prec: prec.collect(),
            hosts,
            stages_of,
            copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_pipeline::PipelineScheme;

    fn costs() -> KindCost {
        KindCost {
            t_prec: 0.2,
            t_sync_grad: 0.1,
            t_sync_curv: 0.3,
            ..KindCost::standard(1.0, 2.0)
        }
    }

    #[test]
    fn one_host_per_stage_shares_only_across_replicas() {
        let g = PipelineScheme::OneFOneB.build(4, 4);
        let alone = KfacShare::new(&g, 1, &costs());
        assert_eq!(alone.stages_of, vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(alone.copies, vec![1; 4]);
        assert_eq!((alone.sync_curv, alone.sync_grad), (vec![0.0; 4], 0.0));
        assert_eq!(alone.prec, vec![0.2; 4]);
        let replicated = KfacShare::new(&g, 2, &costs());
        assert_eq!(replicated.copies, vec![2; 4]);
        assert_eq!(replicated.sync_curv, vec![0.3; 4]);
        assert_eq!(replicated.sync_grad, 0.1);
    }

    #[test]
    fn chimera_hosts_split_every_stage_at_any_w() {
        let g = PipelineScheme::Chimera.build(4, 4);
        let share = KfacShare::new(&g, 1, &costs());
        assert_eq!(
            share.hosts,
            vec![vec![0, 3], vec![1, 2], vec![1, 2], vec![0, 3]]
        );
        assert_eq!(share.stages_of[1], vec![1, 2]);
        assert_eq!(share.copies, vec![2; 4]);
        assert_eq!(share.sync_curv, vec![0.3; 4]);
        assert_eq!(share.sync_grad, 0.1);
        assert_eq!(share.prec, vec![0.2 * 2.0; 4]);
        assert_eq!(KfacShare::new(&g, 2, &costs()).copies, vec![4; 4]);
    }
}
