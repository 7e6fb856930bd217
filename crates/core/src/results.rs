//! PRA sweep results: storage, ranking queries and CSV round-tripping.
//!
//! Sweep outputs feed several downstream consumers — the figure harnesses,
//! the Table 3 regression and the attribution tables — so they are stored as a
//! plain struct-of-vectors and serialized as self-describing CSV (stable
//! column order, quoted names, no external dependencies).

use crate::pra::PraPoint;
use std::borrow::Cow;

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

    /// Protocol indices sorted best-first by the given measure extractor:
    /// greater values first (a NaN compares equal to everything), ties by
    /// index.
    ///
    /// The measure runs once per protocol, not once per comparison; the
    /// stable sort then compares the stored values exactly as it would
    /// compare recomputed ones, so the permutation is the same.
    #[must_use]
    pub fn ranked_by(&self, measure: impl Fn(&PraPoint) -> f64) -> Vec<usize> {
        let keys: Vec<f64> = (0..self.len()).map(|i| measure(&self.point(i))).collect();
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| {
            keys[b]
                .partial_cmp(&keys[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }

    /// 1-based rank of protocol `i` under a measure (the paper quotes
    /// "Birds ... ranks at 30 among all 3270 protocols"); 0 when `i` is
    /// out of range.
    ///
    /// Counts, without sorting, the protocols ranked ahead of `i`: those
    /// with a greater value, plus those with an equal value at a lower
    /// index. That is `i`'s position in [`Self::ranked_by`]'s stable
    /// best-first order whenever the measure has no NaN; a NaN compares
    /// neither greater nor equal here, while the sort treats it as equal
    /// to everything.
    #[must_use]
    pub fn rank_of(&self, i: usize, measure: impl Fn(&PraPoint) -> f64) -> usize {
        if i >= self.len() {
            return 0;
        }
        let v = measure(&self.point(i));
        let ahead = (0..self.len())
            .filter(|&j| {
                let u = measure(&self.point(j));
                u > v || (u == v && j < i)
            })
            .count();
        ahead + 1
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
        let mut fields = Vec::with_capacity(6);
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            fields.clear();
            fields.extend(split_csv(line));
            if fields.len() != 6 {
                return Err(format!("line {}: expected 6 fields", lineno + 2));
            }
            let expected = names.len();
            if fields[0].parse::<usize>() != Ok(expected) {
                return Err(format!(
                    "line {}: index {}, expected {expected}",
                    lineno + 2,
                    fields[0]
                ));
            }
            let parse = |s: &str, what: &str| {
                s.parse::<f64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 2))
            };
            names.push(fields[1].clone().into_owned());
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

/// Rejects a text field that a stamped cache could write but not read
/// back.
///
/// [`quote_csv`] quotes a line break, but every cache reader splits its
/// body with `str::lines()`, so a field holding `\n` would leave a cache
/// that fails as corrupt on every later run. A `\r` is rejected with it:
/// `lines()` drops one that ends a line, and other CSV readers break lines
/// at it. Every cache `store` checks its text fields with this before it
/// writes anything.
///
/// # Errors
///
/// Returns an error that names the field when it holds a line break.
pub fn check_csv_field(field: &str) -> Result<(), String> {
    if field.contains(['\n', '\r']) {
        Err(format!(
            "cannot cache the field {field:?}: a cache row cannot hold a line break"
        ))
    } else {
        Ok(())
    }
}

/// Splits one CSV line into its fields, honoring double-quoted fields.
///
/// A field with no `"` in it is borrowed from `line`. Only a field that
/// holds a quote is rebuilt: each `"` toggles quoting, and `""` inside
/// quotes is one literal `"`. A `,` ends a field only outside quotes, and
/// a line of `n` unquoted commas has `n + 1` fields. The field list
/// equals, for every input (malformed quoting included), what a
/// char-by-char splitter applying those rules to the whole line returns;
/// the old allocating splitter is kept as a test reference and checked
/// against this one. `,` and `"` are ASCII, and no byte of a multi-byte
/// UTF-8 character is ASCII, so scanning bytes for them is safe and every
/// slice boundary is a char boundary.
///
/// Readers that parse many lines reuse one buffer:
/// `fields.clear(); fields.extend(split_csv(line));`.
#[must_use]
pub fn split_csv(line: &str) -> CsvFields<'_> {
    CsvFields {
        line,
        next: Some(0),
    }
}

/// The fields of one CSV line, in order (see [`split_csv`]).
#[derive(Debug, Clone)]
pub struct CsvFields<'a> {
    line: &'a str,
    /// Byte offset of the next field; `None` once the last is returned.
    next: Option<usize>,
}

impl<'a> Iterator for CsvFields<'a> {
    type Item = Cow<'a, str>;

    fn next(&mut self) -> Option<Cow<'a, str>> {
        let start = self.next?;
        let rest = &self.line[start..];
        match rest.bytes().position(|b| b == b',' || b == b'"') {
            Some(k) if rest.as_bytes()[k] == b',' => {
                self.next = Some(start + k + 1);
                Some(Cow::Borrowed(&rest[..k]))
            }
            Some(_) => {
                let (field, end) = unquote(rest);
                self.next = end.map(|k| start + k + 1);
                Some(Cow::Owned(field))
            }
            None => {
                self.next = None;
                Some(Cow::Borrowed(rest))
            }
        }
    }
}

/// Rebuilds a field that holds a quote, from the field's start: returns
/// the field and the offset of the unquoted `,` that ends it (`None` when
/// it runs to the end of the line).
fn unquote(s: &str) -> (String, Option<usize>) {
    let mut field = String::with_capacity(s.len());
    let mut in_quotes = false;
    let mut chars = s.char_indices().peekable();
    while let Some((k, c)) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek().is_some_and(|&(_, n)| n == '"') => {
                field.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => return (field, Some(k)),
            _ => field.push(c),
        }
    }
    (field, None)
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
    fn csv_rejects_rows_out_of_index_order() {
        let r = sample();
        let csv = r.to_csv(None);
        let mut lines: Vec<&str> = csv.lines().collect();
        lines.swap(1, 2);
        let swapped = lines.join("\n");
        assert_eq!(
            PraResults::from_csv(&swapped).unwrap_err(),
            "line 2: index 1, expected 0"
        );
        let bad = csv.replacen("\n1,", "\nx,", 1);
        assert_eq!(
            PraResults::from_csv(&bad).unwrap_err(),
            "line 3: index x, expected 1"
        );
    }

    #[test]
    fn split_csv_handles_quotes() {
        let split = |line| split_csv(line).collect::<Vec<_>>();
        assert_eq!(split(r#"1,"a,b",c"#), vec!["1", "a,b", "c"]);
        assert_eq!(split(r#""say ""hi""",2"#), vec!["say \"hi\"", "2"]);
        assert_eq!(split(""), vec![""]);
        assert_eq!(split(",é,"), vec!["", "é", ""]);
        // Unquoted fields are borrowed; only a quoted one is rebuilt.
        let fields = split(r#"x,"y",z"#);
        assert!(matches!(fields[0], Cow::Borrowed("x")));
        assert!(matches!(&fields[1], Cow::Owned(y) if y == "y"));
        assert!(matches!(fields[2], Cow::Borrowed("z")));
    }

    #[test]
    #[should_panic(expected = "names length")]
    fn csv_names_length_checked() {
        let r = sample();
        let _ = r.to_csv(Some(&["only-one".to_string()]));
    }
}
