//! Dinic's maximum-flow algorithm plus feasibility of flows with lower
//! bounds — the decision procedure behind tuple-matching existence
//! (Definitions 15–17): "does an AU-relation bound this possible world?"
//! reduces to a transportation-feasibility problem.

/// A directed edge with remaining capacity.
#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: u64,
    rev: usize,
}

/// A flow network on `n` nodes (Dinic's algorithm).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    graph: Vec<Vec<Edge>>,
}

impl FlowNetwork {
    pub fn new(nodes: usize) -> Self {
        FlowNetwork { graph: vec![Vec::new(); nodes] }
    }

    pub fn nodes(&self) -> usize {
        self.graph.len()
    }

    /// Add a directed edge with the given capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge { to, cap, rev: rev_from });
        self.graph[to].push(Edge { to: from, cap: 0, rev: rev_to });
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1i32; self.graph.len()];
        let mut queue = std::collections::VecDeque::new();
        level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for e in &self.graph[u] {
                if e.cap > 0 && level[e.to] < 0 {
                    level[e.to] = level[u] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        if level[t] < 0 {
            None
        } else {
            Some(level)
        }
    }

    fn dfs_augment(
        &mut self,
        u: usize,
        t: usize,
        f: u64,
        level: &[i32],
        iter: &mut [usize],
    ) -> u64 {
        if u == t {
            return f;
        }
        while iter[u] < self.graph[u].len() {
            let (to, cap, rev) = {
                let e = &self.graph[u][iter[u]];
                (e.to, e.cap, e.rev)
            };
            if cap > 0 && level[to] == level[u] + 1 {
                let d = self.dfs_augment(to, t, f.min(cap), level, iter);
                if d > 0 {
                    self.graph[u][iter[u]].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Maximum flow from `s` to `t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        let mut flow = 0u64;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut iter = vec![0usize; self.graph.len()];
            loop {
                let f = self.dfs_augment(s, t, u64::MAX, &level, &mut iter);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// An edge specification with lower and upper capacity bounds.
#[derive(Debug, Clone, Copy)]
pub struct BoundedEdge {
    pub from: usize,
    pub to: usize,
    pub lower: u64,
    pub upper: u64,
}

/// Decide whether a *circulation* satisfying all edge bounds exists
/// (standard reduction: excess/deficit super-source and super-sink).
/// Nodes are `0..nodes`; conservation must hold at every node.
pub fn feasible_circulation(nodes: usize, edges: &[BoundedEdge]) -> bool {
    // super source = nodes, super sink = nodes + 1
    let s = nodes;
    let t = nodes + 1;
    let mut net = FlowNetwork::new(nodes + 2);
    let mut excess = vec![0i128; nodes];
    for e in edges {
        if e.lower > e.upper {
            return false;
        }
        net.add_edge(e.from, e.to, e.upper - e.lower);
        excess[e.to] += e.lower as i128;
        excess[e.from] -= e.lower as i128;
    }
    let mut need = 0u64;
    for (v, ex) in excess.iter().enumerate() {
        match ex.cmp(&0) {
            std::cmp::Ordering::Greater => {
                net.add_edge(s, v, *ex as u64);
                need += *ex as u64;
            }
            std::cmp::Ordering::Less => {
                net.add_edge(v, t, (-*ex) as u64);
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    net.max_flow(s, t) == need
}

/// Decide whether an `s`–`t` flow with the given edge bounds exists
/// (adds the `t → s` infinite return edge and checks the circulation).
pub fn feasible_flow(nodes: usize, s: usize, t: usize, edges: &[BoundedEdge]) -> bool {
    let mut all = edges.to_vec();
    all.push(BoundedEdge { from: t, to: s, lower: 0, upper: u64::MAX / 4 });
    feasible_circulation(nodes, &all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_max_flow() {
        // s=0 → 1 → t=3; s → 2 → t with caps forming max flow 5
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 4);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn disconnected_flow_is_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(2, 3, 3);
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn bipartite_matching_via_flow() {
        // 2 left nodes (1, 2), 2 right nodes (3, 4); perfect matching
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        net.add_edge(2, 4, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(4, 5, 1);
        assert_eq!(net.max_flow(0, 5), 2);
    }

    #[test]
    fn circulation_with_lower_bounds() {
        // 0 → 1 with bounds [2,3]; 1 → 0 with bounds [0,5]: feasible
        let edges = [
            BoundedEdge { from: 0, to: 1, lower: 2, upper: 3 },
            BoundedEdge { from: 1, to: 0, lower: 0, upper: 5 },
        ];
        assert!(feasible_circulation(2, &edges));
        // but requiring 1 → 0 at least 4 while 0 → 1 at most 3 is not
        let edges = [
            BoundedEdge { from: 0, to: 1, lower: 2, upper: 3 },
            BoundedEdge { from: 1, to: 0, lower: 4, upper: 5 },
        ];
        assert!(!feasible_circulation(2, &edges));
    }

    #[test]
    fn st_flow_with_lower_bounds() {
        // s=0 must push between [1,2] to node 1, node 1 → t=2 within [0,1]
        let edges = [
            BoundedEdge { from: 0, to: 1, lower: 1, upper: 2 },
            BoundedEdge { from: 1, to: 2, lower: 0, upper: 1 },
        ];
        assert!(feasible_flow(3, 0, 2, &edges));
        let edges = [
            BoundedEdge { from: 0, to: 1, lower: 2, upper: 2 },
            BoundedEdge { from: 1, to: 2, lower: 0, upper: 1 },
        ];
        assert!(!feasible_flow(3, 0, 2, &edges));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Max-flow never exceeds the source's outgoing capacity and is
        /// reproducible (deterministic algorithm).
        #[test]
        fn flow_bounded_by_source_capacity(
            edges in proptest::collection::vec((0usize..6, 0usize..6, 1u64..8), 1..12)
        ) {
            let mut net = FlowNetwork::new(6);
            let mut cap_out = 0u64;
            for (f, t, c) in &edges {
                if f != t {
                    net.add_edge(*f, *t, *c);
                    if *f == 0 {
                        cap_out += c;
                    }
                }
            }
            let mut net2 = net.clone();
            let flow = net.max_flow(0, 5);
            prop_assert!(flow <= cap_out);
            prop_assert_eq!(flow, net2.max_flow(0, 5));
        }

        /// Feasibility with all-zero lower bounds always holds (the zero
        /// circulation is valid).
        #[test]
        fn zero_lower_bounds_always_feasible(
            edges in proptest::collection::vec((0usize..5, 0usize..5, 0u64..9), 0..10)
        ) {
            let bounded: Vec<BoundedEdge> = edges
                .iter()
                .map(|(f, t, c)| BoundedEdge { from: *f, to: *t, lower: 0, upper: *c })
                .collect();
            prop_assert!(feasible_circulation(5, &bounded));
        }
    }
}
