//! The naive reference network the production forwards and backwards are
//! judged against: textbook triple loops over `Vec<Vec<f32>>`, one rounding
//! per step, in the order the numerical contract of `duet_nn::kernels`
//! promises — products accumulated in ascending order of the shared
//! dimension from `+0.0`, then the bias, then the activation; a parameter
//! gradient is the staged batch gradient added onto the running one.
//!
//! It shares no kernel, no dispatch and no workspace with `duet_nn`: no zero
//! skipping, no packing, no tiles, no fusion. That is what lets it stand in
//! for the second production implementation that used to play oracle.

/// A batch, one `Vec` per row.
pub type Rows = Vec<Vec<f32>>;

fn zeros(rows: usize, cols: usize) -> Rows {
    vec![vec![0.0; cols]; rows]
}

/// `y = x @ (W ⊙ M) + b`, `W` stored `in x out`; `mask: None` is a plain
/// linear layer.
pub struct Linear {
    pub w: Rows,
    pub mask: Option<Rows>,
    pub b: Vec<f32>,
    pub dw: Rows,
    pub db: Vec<f32>,
}

impl Linear {
    pub fn new(w: Rows, mask: Option<Rows>, b: Vec<f32>) -> Self {
        let (dw, db) = (zeros(w.len(), b.len()), vec![0.0; b.len()]);
        Self { w, mask, b, dw, db }
    }

    fn effective(&self, p: usize, j: usize) -> f32 {
        self.mask.as_ref().map_or(self.w[p][j], |m| self.w[p][j] * m[p][j])
    }

    fn forward(&self, x: &Rows) -> Rows {
        let mut out = zeros(x.len(), self.b.len());
        for (orow, xrow) in out.iter_mut().zip(x) {
            for (j, o) in orow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (p, &xv) in xrow.iter().enumerate() {
                    acc += xv * self.effective(p, j);
                }
                *o = acc + self.b[j];
            }
        }
        out
    }

    /// Accumulate `dW`/`db` for input `x` and output gradient `g`; return the
    /// input gradient.
    fn backward(&mut self, x: &Rows, g: &Rows) -> Rows {
        for p in 0..self.w.len() {
            for j in 0..self.b.len() {
                let mut acc = 0.0f32;
                for (xrow, grow) in x.iter().zip(g) {
                    acc += xrow[p] * grow[j];
                }
                if let Some(m) = &self.mask {
                    acc *= m[p][j];
                }
                self.dw[p][j] += acc;
            }
        }
        for j in 0..self.b.len() {
            let mut acc = 0.0f32;
            for grow in g {
                acc += grow[j];
            }
            self.db[j] += acc;
        }
        let mut gin = zeros(g.len(), self.w.len());
        for (irow, grow) in gin.iter_mut().zip(g) {
            for (p, i) in irow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (j, &gv) in grow.iter().enumerate() {
                    acc += gv * self.effective(p, j);
                }
                *i = acc;
            }
        }
        gin
    }
}

fn relu(pre: &Rows) -> Rows {
    pre.iter().map(|r| r.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect()).collect()
}

fn gate(g: &mut Rows, pre: &Rows) {
    for (grow, prow) in g.iter_mut().zip(pre) {
        for (gv, &pv) in grow.iter_mut().zip(prow) {
            if pv <= 0.0 {
                *gv = 0.0;
            }
        }
    }
}

pub enum Stage {
    /// `relu(linear(x))`.
    Relu(Linear),
    /// `x + fc2(relu(fc1(x)))`.
    Residual(Linear, Linear),
    /// `linear(x)`.
    Output(Linear),
}

/// What a forward pass leaves for the backward: every stage's input and
/// pre-activation (empty for an output stage).
pub struct Tape {
    inputs: Vec<Rows>,
    pres: Vec<Rows>,
    pub output: Rows,
}

pub struct Net {
    pub stages: Vec<Stage>,
}

impl Net {
    pub fn forward(&self, x: &Rows) -> Tape {
        let (mut inputs, mut pres) = (Vec::new(), Vec::new());
        let mut cur = x.clone();
        for stage in &self.stages {
            let (pre, next) = match stage {
                Stage::Relu(l) => {
                    let pre = l.forward(&cur);
                    let act = relu(&pre);
                    (pre, act)
                }
                Stage::Residual(fc1, fc2) => {
                    let pre = fc1.forward(&cur);
                    let mut out = fc2.forward(&relu(&pre));
                    for (orow, xrow) in out.iter_mut().zip(&cur) {
                        for (o, &xv) in orow.iter_mut().zip(xrow) {
                            *o += xv;
                        }
                    }
                    (pre, out)
                }
                Stage::Output(l) => (Vec::new(), l.forward(&cur)),
            };
            inputs.push(std::mem::replace(&mut cur, next));
            pres.push(pre);
        }
        Tape { inputs, pres, output: cur }
    }

    /// Accumulate every parameter gradient for `tape` and output gradient
    /// `g`; return the input gradient.
    pub fn backward(&mut self, tape: &Tape, g: &Rows) -> Rows {
        let mut g = g.clone();
        for (i, stage) in self.stages.iter_mut().enumerate().rev() {
            let (x, pre) = (&tape.inputs[i], &tape.pres[i]);
            g = match stage {
                Stage::Output(l) => l.backward(x, &g),
                Stage::Relu(l) => {
                    gate(&mut g, pre);
                    l.backward(x, &g)
                }
                Stage::Residual(fc1, fc2) => {
                    let mut g_act = fc2.backward(&relu(pre), &g);
                    gate(&mut g_act, pre);
                    let mut g_in = fc1.backward(x, &g_act);
                    for (irow, grow) in g_in.iter_mut().zip(&g) {
                        for (i, &gv) in irow.iter_mut().zip(grow) {
                            *i += gv;
                        }
                    }
                    g_in
                }
            };
        }
        g
    }

    /// Every parameter gradient, flattened in `Params::visit_params` order
    /// (weight then bias, layer by layer).
    pub fn grads(&self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for stage in &self.stages {
            let layers: Vec<&Linear> = match stage {
                Stage::Relu(l) | Stage::Output(l) => vec![l],
                Stage::Residual(fc1, fc2) => vec![fc1, fc2],
            };
            for l in layers {
                out.push(l.dw.concat());
                out.push(l.db.clone());
            }
        }
        out
    }
}

impl Net {
    /// Assemble a network from its linears in parameter-visiting order:
    /// `Linear -> ReLU` stages and a final plain linear; with `residual`,
    /// every hidden linear after the first pairs up into a residual block.
    pub fn new(mut layers: Vec<Linear>, residual: bool) -> Self {
        let output = layers.pop().expect("an output layer");
        let mut hidden = layers.into_iter();
        let mut stages = vec![Stage::Relu(hidden.next().expect("a hidden layer"))];
        while let Some(l) = hidden.next() {
            stages.push(match residual {
                true => Stage::Residual(l, hidden.next().expect("residual linears come in pairs")),
                false => Stage::Relu(l),
            });
        }
        stages.push(Stage::Output(output));
        Self { stages }
    }
}

/// MADE's connectivity, restated rather than copied from `duet_nn`: one mask
/// per masked linear, in parameter-visiting order. Input and output units
/// carry their column index as degree, hidden unit `k` the degree
/// `k mod (columns - 1)`; a hidden unit may read units of degree `<=` its
/// own, an output unit only units of strictly smaller degree.
pub fn made_masks(
    input_blocks: &[usize],
    output_blocks: &[usize],
    hidden_sizes: &[usize],
    residual: bool,
) -> Vec<Rows> {
    let block_degrees = |blocks: &[usize]| -> Vec<usize> {
        blocks.iter().enumerate().flat_map(|(col, &w)| vec![col; w]).collect()
    };
    let mask = |prev: &[usize], next: &[usize], allowed: fn(usize, usize) -> bool| -> Rows {
        prev.iter()
            .map(|&p| next.iter().map(|&n| if allowed(p, n) { 1.0 } else { 0.0 }).collect())
            .collect()
    };
    let max_degree = input_blocks.len().saturating_sub(1).max(1);
    let mut masks = Vec::new();
    let mut prev = block_degrees(input_blocks);
    for (i, &width) in hidden_sizes.iter().enumerate() {
        let next: Vec<usize> = (0..width).map(|k| k % max_degree).collect();
        let m = mask(&prev, &next, |p, n| n >= p);
        if residual && i > 0 {
            masks.push(m.clone()); // a residual block's two linears share one mask
        }
        masks.push(m);
        prev = next;
    }
    masks.push(mask(&prev, &block_degrees(output_blocks), |p, n| n > p));
    masks
}
