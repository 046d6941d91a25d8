//! JSON emission for the result line and the files under `out/`.

/// A JSON value; objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders on one line. Fails on a non-finite number: JSON has no
    /// spelling for it, and a metric that is NaN is a broken measurement.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), String> {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(format!("non-finite number {n} in JSON output"));
                }
                // `Display` prints the shortest digits that round-trip,
                // never an exponent: every digit measured, valid JSON.
                out.push_str(&n.to_string());
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out)?;
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out).map_err(|e| format!("{key}: {e}"))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The object the driver reads from the last line of standard output.
pub fn result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted)),
        ("failed".into(), Json::Int(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [
            Metric {
                name: "epoch_ms",
                value: 1.2034,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            },
        ];
        assert_eq!(
            result(true, 1000, 0, &metrics).render().unwrap(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"epoch_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_never_use_exponents() {
        assert_eq!(Json::Num(0.000000123).render().unwrap(), "0.000000123");
        assert_eq!(Json::Num(3.0).render().unwrap(), "3");
        assert_eq!(
            Json::Num(0.1 + 0.2).render().unwrap(),
            "0.30000000000000004"
        );
    }

    #[test]
    fn non_finite_numbers_are_refused_by_name() {
        let bad = result(
            true,
            1,
            0,
            &[Metric {
                name: "final_rmse",
                value: f64::NAN,
                unit: "rmse",
            }],
        );
        let err = bad.render().unwrap_err();
        assert!(err.contains("final_rmse"), "{err}");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::Str("a\"b\\c\n".into()).render().unwrap(),
            "\"a\\\"b\\\\c\\n\""
        );
    }
}
