//! Span trees from `/debug/trace/<id>` and their self times.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children's intervals cover, taken as a union: two children
//! running in parallel (a fill's simulation points on two workers) cover
//! their overlap once.

use offchip_json::Json;

/// One span as the service exports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within its trace.
    pub id: u64,
    /// Parent span id; 0 for the root.
    pub parent: u64,
    /// Span name (`request`, `http.parse`, `fill`, `sim.point`, ...).
    pub name: String,
    /// Free-form detail (`key=uma/CG.S disposition=coalesced`, ...).
    pub detail: String,
    /// Start, µs since the server's trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

impl Span {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Parses the span-tree document `GET /debug/trace/<id>` returns.
pub fn parse_tree(body: &str) -> Result<Vec<Span>, String> {
    let doc = Json::parse(body).map_err(|e| format!("trace JSON: {e}"))?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("trace JSON has no spans array")?;
    spans
        .iter()
        .map(|s| {
            let num = |k: &str| {
                s.get(k)
                    .and_then(Json::as_f64)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("span without {k}"))
            };
            Ok(Span {
                id: num("id")?,
                parent: num("parent")?,
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without name")?
                    .to_string(),
                detail: s
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                start_us: num("start_us")?,
                dur_us: num("dur_us")?,
            })
        })
        .collect()
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|p| {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == p.id && c.id != p.id)
                .map(|c| (c.start_us, c.end_us()))
                .collect();
            p.dur_us - covered(children, p.start_us, p.end_us())
        })
        .collect()
}

/// The part of every span's self time that falls inside the root's
/// interval, summed over the tree, against the root's duration. For a
/// tree whose spans nest without overlapping siblings the two are equal:
/// the layers' self times add up to the request. Returns `(sum, root)`.
pub fn self_time_sum_vs_root(spans: &[Span]) -> Option<(u64, u64)> {
    let root = spans.iter().find(|s| s.parent == 0)?;
    let (lo, hi) = (root.start_us, root.end_us());
    let sum = spans
        .iter()
        .map(|p| {
            let inside = covered(vec![(p.start_us, p.end_us())], lo, hi);
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == p.id && c.id != p.id)
                .map(|c| (c.start_us.max(lo), c.end_us().min(hi)))
                .collect();
            inside - covered(children, p.start_us.max(lo), p.end_us().min(hi))
        })
        .sum();
    Some((sum, root.dur_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            detail: String::new(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // fill [0,100) with two parallel points [10,60) and [40,90) and
        // a nested grandchild [20,30) inside the first point.
        let tree = vec![
            span(1, 0, "fill", 0, 100),
            span(2, 1, "sim.point", 10, 50),
            span(3, 1, "sim.point", 40, 50),
            span(4, 2, "lane", 20, 10),
        ];
        // Children cover [10,90) = 80, so fill keeps 20; point 2 loses
        // its grandchild's 10.
        assert_eq!(self_times(&tree), vec![20, 40, 50, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // http.parse is recorded before the request span opens.
        let tree = vec![
            span(1, 0, "request", 100, 50),
            span(2, 1, "http.parse", 80, 25),
            span(3, 1, "response.write", 130, 20),
        ];
        assert_eq!(self_times(&tree), vec![25, 25, 20]);
        // Inside the root: request 25 + parse's 5 + write 20 = 50.
        assert_eq!(self_time_sum_vs_root(&tree), Some((50, 50)));
    }

    #[test]
    fn overlap_breaks_the_sum_check() {
        let tree = vec![
            span(1, 0, "fill", 0, 100),
            span(2, 1, "sim.point", 10, 50),
            span(3, 1, "sim.point", 40, 50),
        ];
        let (sum, root) = self_time_sum_vs_root(&tree).unwrap();
        assert_eq!((sum, root), (120, 100));
    }

    #[test]
    fn parses_the_service_document() {
        let body = r#"{"trace_id":"00000000cafe0001","spans":[
            {"id":1,"parent":0,"name":"request","detail":"POST /predict","start_us":10,"dur_us":40},
            {"id":2,"parent":1,"name":"cache.hit","detail":"key=uma/CG.S","start_us":20,"dur_us":0}]}"#;
        let spans = parse_tree(body).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].detail, "key=uma/CG.S");
        assert_eq!((spans[1].id, spans[1].parent, spans[1].dur_us), (2, 1, 0));
        assert!(parse_tree("{}").is_err());
    }
}
