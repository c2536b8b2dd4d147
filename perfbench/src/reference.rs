//! Independent references the benchmark checks the program's outputs
//! against. Nothing here calls into the program: the graph, the logical QAOA
//! statevector, the exhaustive Max-Cut and the Ising energy are written out
//! from their definitions, and `self_check` pins each one to a closed-form
//! fact before any workload runs.

use crate::rng::Rng;

/// An unweighted graph on vertices `0..n` with edges `u < v`.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(usize, usize)>,
}

impl Graph {
    /// A connected random graph with exactly `m` edges (`n - 1 ≤ m ≤
    /// n(n-1)/2`): a random spanning path plus uniformly drawn extra pairs.
    /// A fixed edge count keeps the work per job nearly the same from seed
    /// to seed.
    pub fn random(n: usize, m: usize, rng: &mut Rng) -> Graph {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut adjacent = vec![vec![false; n]; n];
        let link = |u: usize, v: usize, adjacent: &mut Vec<Vec<bool>>| {
            let new = u != v && !adjacent[u][v];
            if new {
                adjacent[u][v] = true;
                adjacent[v][u] = true;
            }
            usize::from(new)
        };
        let mut count = 0;
        for pair in order.windows(2) {
            count += link(pair[0], pair[1], &mut adjacent);
        }
        let m = m.clamp(n.saturating_sub(1), n * (n - 1) / 2);
        while count < m {
            count += link(rng.below(n), rng.below(n), &mut adjacent);
        }
        let edges = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|&(u, v)| adjacent[u][v])
            .collect();
        Graph { n, edges }
    }

    pub fn cycle(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((0, n - 1));
        Graph { n, edges }
    }

    pub fn complete(n: usize) -> Graph {
        let edges = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        Graph { n, edges }
    }

    /// Cut size of the assignment whose bit `i` is vertex `i`'s side.
    pub fn cut_of_mask(&self, x: usize) -> u32 {
        self.edges
            .iter()
            .filter(|&&(u, v)| ((x >> u) ^ (x >> v)) & 1 == 1)
            .count() as u32
    }

    pub fn cut_of_sides(&self, sides: &[bool]) -> u32 {
        self.edges
            .iter()
            .filter(|&&(u, v)| sides[u] != sides[v])
            .count() as u32
    }

    /// Exhaustive maximum cut over all `2^n` assignments.
    pub fn max_cut(&self) -> u32 {
        (0..1usize << self.n)
            .map(|x| self.cut_of_mask(x))
            .max()
            .unwrap_or(0)
    }

    /// Ising energy `Σ_(u,v) s_u s_v` with unit couplings and no fields.
    pub fn ising_energy(&self, spins: &[i8]) -> f64 {
        self.edges
            .iter()
            .map(|&(u, v)| f64::from(spins[u] * spins[v]))
            .sum()
    }
}

/// Exact cut statistics of a QAOA state over its `Z`-basis outcomes.
#[derive(Debug, Clone, Copy)]
pub struct CutStats {
    pub mean: f64,
    pub variance: f64,
}

/// Plain statevector of the logical QAOA circuit: `|+>^n`, then per layer
/// `RZZ(2γ)` on every edge (`exp(-iγ Z_u Z_v)`) and `RX(2β)` on every qubit
/// (`exp(-iβ X)`). Qubit `i` is vertex `i` and bit `i` of the basis index.
pub fn qaoa_cut_stats(graph: &Graph, layers: &[(f64, f64)]) -> CutStats {
    let dim = 1usize << graph.n;
    let amp = 1.0 / (dim as f64).sqrt();
    let mut re = vec![amp; dim];
    let mut im = vec![0.0; dim];
    for &(gamma, beta) in layers {
        for &(u, v) in &graph.edges {
            let (even_c, even_s) = ((-gamma).cos(), (-gamma).sin());
            let (odd_c, odd_s) = (gamma.cos(), gamma.sin());
            for x in 0..dim {
                let (c, s) = if ((x >> u) ^ (x >> v)) & 1 == 0 {
                    (even_c, even_s)
                } else {
                    (odd_c, odd_s)
                };
                let (a, b) = (re[x], im[x]);
                re[x] = a * c - b * s;
                im[x] = a * s + b * c;
            }
        }
        let (c, s) = (beta.cos(), beta.sin());
        for q in 0..graph.n {
            let bit = 1usize << q;
            for x in (0..dim).filter(|x| x & bit == 0) {
                let y = x | bit;
                let (ar, ai, br, bi) = (re[x], im[x], re[y], im[y]);
                // [c, -i s; -i s, c] applied to (a, b).
                re[x] = c * ar + s * bi;
                im[x] = c * ai - s * br;
                re[y] = s * ai + c * br;
                im[y] = -s * ar + c * bi;
            }
        }
    }
    let (mut mean, mut square) = (0.0, 0.0);
    for x in 0..dim {
        let p = re[x] * re[x] + im[x] * im[x];
        let cut = f64::from(graph.cut_of_mask(x));
        mean += p * cut;
        square += p * cut * cut;
    }
    CutStats {
        mean,
        variance: (square - mean * mean).max(0.0),
    }
}

/// Pin every reference to a fact that holds in closed form.
pub fn self_check() -> Result<(), String> {
    let fail = |what: &str| Err(format!("reference self-check failed: {what}"));
    // p = 1 QAOA on C4 at γ = π/8, β = 3π/8 reaches ¾ of the best cut: an
    // expected cut of exactly 3.
    let frac = std::f64::consts::FRAC_PI_8;
    let c4 = qaoa_cut_stats(&Graph::cycle(4), &[(frac, 3.0 * frac)]);
    if (c4.mean - 3.0).abs() > 1e-9 {
        return fail(&format!("expected cut on C4 is {}, not 3", c4.mean));
    }
    // At γ = β = 0 the state stays uniform: every edge is cut half the time.
    let mut rng = Rng::new(0x5eed);
    let g = Graph::random(7, 9, &mut rng);
    let flat = qaoa_cut_stats(&g, &[(0.0, 0.0)]);
    if (flat.mean - g.edges.len() as f64 / 2.0).abs() > 1e-9 {
        return fail("uniform state does not cut half the edges");
    }
    // Exhaustive Max-Cut: even cycles are bipartite, odd cycles lose one
    // edge, and K_n cuts ⌊n²/4⌋.
    for n in 3..9 {
        let want = if n % 2 == 0 { n } else { n - 1 } as u32;
        if Graph::cycle(n).max_cut() != want {
            return fail(&format!("max cut of C{n}"));
        }
        if Graph::complete(n).max_cut() != (n * n / 4) as u32 {
            return fail(&format!("max cut of K{n}"));
        }
    }
    // With unit couplings E = m − 2·cut for every assignment.
    let m = g.edges.len() as f64;
    for x in 0..1usize << g.n {
        let spins: Vec<i8> = (0..g.n)
            .map(|i| if x >> i & 1 == 1 { -1 } else { 1 })
            .collect();
        if (g.ising_energy(&spins) - (m - 2.0 * f64::from(g.cut_of_mask(x)))).abs() > 1e-9 {
            return fail("Ising energy is not m - 2·cut");
        }
    }
    Ok(())
}
