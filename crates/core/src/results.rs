//! PRA sweep results: storage, ranking queries and CSV round-tripping.
//!
//! Sweep outputs feed several downstream consumers — the figure harnesses,
//! the Table 3 regression and the attribution tables — so they are stored as a
//! plain struct-of-vectors and serialized as self-describing CSV (stable
//! column order, quoted names, no external dependencies).

use crate::pra::PraPoint;

/// Results of a PRA sweep, indexed by protocol position.
#[derive(Debug, Clone, PartialEq)]
pub struct PraResults {
    /// Unnormalized mean utilities from the performance phase.
    pub performance_raw: Vec<f64>,
    /// Performance normalized over the space (best = 1).
    pub performance: Vec<f64>,
    /// Robustness win rates.
    pub robustness: Vec<f64>,
    /// Aggressiveness win rates.
    pub aggressiveness: Vec<f64>,
}

impl PraResults {
    /// Bundles the four phase outputs.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    #[must_use]
    pub fn new(
        performance_raw: Vec<f64>,
        performance: Vec<f64>,
        robustness: Vec<f64>,
        aggressiveness: Vec<f64>,
    ) -> Self {
        assert_eq!(performance_raw.len(), performance.len());
        assert_eq!(performance.len(), robustness.len());
        assert_eq!(robustness.len(), aggressiveness.len());
        Self {
            performance_raw,
            performance,
            robustness,
            aggressiveness,
        }
    }

    /// Number of protocols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.performance.len()
    }

    /// Whether the result set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.performance.is_empty()
    }

    /// The PRA point of one protocol.
    #[must_use]
    pub fn point(&self, i: usize) -> PraPoint {
        PraPoint {
            performance: self.performance[i],
            robustness: self.robustness[i],
            aggressiveness: self.aggressiveness[i],
        }
    }

    /// Protocol indices sorted best-first by the given measure extractor.
    #[must_use]
    pub fn ranked_by(&self, measure: impl Fn(&PraPoint) -> f64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| {
            let va = measure(&self.point(a));
            let vb = measure(&self.point(b));
            vb.partial_cmp(&va)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }

    /// 1-based rank of protocol `i` under a measure (the paper quotes
    /// "Birds ... ranks at 30 among all 3270 protocols").
    #[must_use]
    pub fn rank_of(&self, i: usize, measure: impl Fn(&PraPoint) -> f64) -> usize {
        self.ranked_by(measure)
            .iter()
            .position(|&x| x == i)
            .map_or(0, |p| p + 1)
    }

    /// Serializes to CSV with an `index` column and optional names.
    ///
    /// # Panics
    ///
    /// Panics if `names` is given with the wrong length.
    #[must_use]
    pub fn to_csv(&self, names: Option<&[String]>) -> String {
        if let Some(n) = names {
            assert_eq!(n.len(), self.len(), "names length mismatch");
        }
        let mut out =
            String::from("index,name,performance_raw,performance,robustness,aggressiveness\n");
        for i in 0..self.len() {
            let name = names.map_or(String::new(), |n| quote_csv(&n[i]));
            // `{}` on f64 prints the shortest representation that parses
            // back to the identical bits — the cache must round-trip
            // exactly or reruns would silently diverge from cached runs.
            out.push_str(&format!(
                "{i},{name},{},{},{},{}\n",
                self.performance_raw[i],
                self.performance[i],
                self.robustness[i],
                self.aggressiveness[i]
            ));
        }
        out
    }

    /// Parses the CSV produced by [`Self::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_csv(text: &str) -> Result<(Self, Vec<String>), String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty CSV")?;
        if !header.starts_with("index,name,performance_raw") {
            return Err(format!("unexpected header: {header}"));
        }
        let mut raw = Vec::new();
        let mut perf = Vec::new();
        let mut rob = Vec::new();
        let mut agg = Vec::new();
        let mut names = Vec::new();
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields = split_csv(line);
            if fields.len() != 6 {
                return Err(format!("line {}: expected 6 fields", lineno + 2));
            }
            let parse = |s: &str, what: &str| {
                s.parse::<f64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 2))
            };
            names.push(fields[1].clone());
            raw.push(parse(&fields[2], "performance_raw")?);
            perf.push(parse(&fields[3], "performance")?);
            rob.push(parse(&fields[4], "robustness")?);
            agg.push(parse(&fields[5], "aggressiveness")?);
        }
        Ok((Self::new(raw, perf, rob, agg), names))
    }
}

/// Quotes a CSV field if it contains separators or quotes.
#[must_use]
pub fn quote_csv(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits one CSV line honoring double-quoted fields.
#[must_use]
pub fn split_csv(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                field.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut field));
            }
            _ => field.push(c),
        }
    }
    out.push(field);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PraResults {
        PraResults::new(
            vec![10.0, 20.0, 5.0],
            vec![0.5, 1.0, 0.25],
            vec![0.9, 0.3, 0.6],
            vec![0.8, 0.2, 0.55],
        )
    }

    #[test]
    fn point_accessor() {
        let r = sample();
        let p = r.point(1);
        assert_eq!(p.performance, 1.0);
        assert_eq!(p.robustness, 0.3);
    }

    #[test]
    fn ranked_by_performance() {
        let r = sample();
        assert_eq!(r.ranked_by(|p| p.performance), vec![1, 0, 2]);
        assert_eq!(r.ranked_by(|p| p.robustness), vec![0, 2, 1]);
    }

    #[test]
    fn rank_of_is_one_based() {
        let r = sample();
        assert_eq!(r.rank_of(1, |p| p.performance), 1);
        assert_eq!(r.rank_of(2, |p| p.performance), 3);
    }

    #[test]
    fn csv_roundtrip_with_names() {
        let r = sample();
        let names = vec![
            "Stranger=None, k=1".to_string(),
            "plain".to_string(),
            "has \"quotes\"".to_string(),
        ];
        let csv = r.to_csv(Some(&names));
        let (back, back_names) = PraResults::from_csv(&csv).unwrap();
        assert_eq!(back, r);
        assert_eq!(back_names, names);
    }

    #[test]
    fn csv_roundtrip_without_names() {
        let r = sample();
        let csv = r.to_csv(None);
        let (back, names) = PraResults::from_csv(&csv).unwrap();
        assert_eq!(back, r);
        assert!(names.iter().all(String::is_empty));
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(PraResults::from_csv("").is_err());
        assert!(PraResults::from_csv("wrong,header\n").is_err());
        let bad = "index,name,performance_raw,performance,robustness,aggressiveness\n0,x,1,2\n";
        assert!(PraResults::from_csv(bad).is_err());
        let nonnum =
            "index,name,performance_raw,performance,robustness,aggressiveness\n0,x,a,b,c,d\n";
        assert!(PraResults::from_csv(nonnum).is_err());
    }

    #[test]
    fn split_csv_handles_quotes() {
        assert_eq!(
            split_csv(r#"1,"a,b",c"#),
            vec!["1".to_string(), "a,b".to_string(), "c".to_string()]
        );
        assert_eq!(
            split_csv(r#""say ""hi""",2"#),
            vec!["say \"hi\"".to_string(), "2".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "names length")]
    fn csv_names_length_checked() {
        let r = sample();
        let _ = r.to_csv(Some(&["only-one".to_string()]));
    }
}
