//! Replays a JSONL trace back into [`Event`]s.
//!
//! Each line is parsed with the shared [`crate::json`] reader, then
//! [`parse_line`] reads the fields of the format written by
//! [`crate::JsonlRecorder`] (flat objects, one nesting level for
//! `labels`). Key order and insignificant whitespace do not matter, so
//! hand-edited or externally produced traces also load; unknown keys
//! and malformed lines are a typed [`ReplayError`].

use std::borrow::Cow;
use std::fs;
use std::path::Path;

use crate::event::{Event, EventKind, Value};
use crate::json::{self, Json, JsonError};

/// A parse failure, with the offending line (1-based) when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number, 0 when not tied to a line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The JSON syntax error behind `message`, when the line was not
    /// JSON at all.
    pub cause: Option<JsonError>,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.cause.as_ref().map(|e| e as _)
    }
}

/// Parses a whole JSONL document (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ReplayError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = parse_line(line).map_err(|e| ReplayError { line: idx + 1, ..e })?;
        events.push(event);
    }
    Ok(events)
}

/// Reads and parses a trace file.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<Event>, ReplayError> {
    let text = fs::read_to_string(path.as_ref()).map_err(|e| ReplayError {
        line: 0,
        message: format!("cannot read {}: {e}", path.as_ref().display()),
        cause: None,
    })?;
    parse_jsonl(&text)
}

/// Parses one JSONL line into an event.
pub fn parse_line(line: &str) -> Result<Event, ReplayError> {
    let doc = json::parse(line).map_err(|e| ReplayError {
        line: 0,
        message: e.to_string(),
        cause: Some(e),
    })?;
    event_from_json(&doc).map_err(|message| ReplayError {
        line: 0,
        message,
        cause: None,
    })
}

/// Reads the fields of one parsed trace object.
fn event_from_json(doc: &Json) -> Result<Event, String> {
    let Json::Obj(fields) = doc else {
        return Err("expected an object".to_string());
    };
    let mut name: Option<String> = None;
    let mut kind_tag: Option<&str> = None;
    let mut nanos: Option<u64> = None;
    let mut delta: Option<u64> = None;
    let mut value: Option<f64> = None;
    let mut labels: Vec<(Cow<'static, str>, Value)> = Vec::new();
    let count = |v: &Json| v.as_u64().ok_or("expected a non-negative integer");
    for (key, v) in fields {
        match key.as_str() {
            "name" => name = Some(v.as_str().ok_or("\"name\" must be a string")?.to_string()),
            "kind" => kind_tag = Some(v.as_str().ok_or("\"kind\" must be a string")?),
            "nanos" => nanos = Some(count(v)?),
            "delta" => delta = Some(count(v)?),
            // `null` is what the writer emits for non-finite samples.
            "value" => {
                value = Some(match v {
                    Json::Null => f64::NAN,
                    _ => v.as_f64().ok_or("\"value\" must be a number")?,
                })
            }
            "labels" => {
                let Json::Obj(pairs) = v else {
                    return Err("\"labels\" must be an object".to_string());
                };
                for (label_key, label_value) in pairs {
                    labels.push((Cow::Owned(label_key.clone()), label(label_value)?));
                }
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    let name = name.ok_or("missing \"name\"")?;
    let kind = match kind_tag {
        Some("span") => EventKind::Span {
            nanos: nanos.ok_or("span missing \"nanos\"")?,
        },
        Some("counter") => EventKind::Counter {
            delta: delta.ok_or("counter missing \"delta\"")?,
        },
        Some("observe") => EventKind::Observe {
            value: value.ok_or("observe missing \"value\"")?,
        },
        Some("mark") => EventKind::Mark,
        Some(other) => return Err(format!("unknown kind {other:?}")),
        None => return Err("missing \"kind\"".to_string()),
    };
    Ok(Event {
        name: Cow::Owned(name),
        kind,
        labels,
    })
}

/// A label value in whichever representation was written: integers
/// that fit stay `U64`/`I64`, anything else numeric is `F64`.
fn label(v: &Json) -> Result<Value, String> {
    Ok(match v {
        Json::Str(s) => Value::Str(Cow::Owned(s.clone())),
        // `null` only appears for non-finite floats we refused to write.
        Json::Null => Value::F64(f64::NAN),
        Json::Num(_) => match (v.as_u64(), v.as_i64()) {
            (Some(u), _) => Value::U64(u),
            (None, Some(i)) => Value::I64(i),
            (None, None) => Value::F64(v.as_f64().ok_or("bad number")?),
        },
        _ => return Err("label values must be strings or numbers".to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_each_kind() {
        let text = concat!(
            "{\"name\":\"s\",\"kind\":\"span\",\"nanos\":12,\"labels\":{\"stage\":\"map\"}}\n",
            "{\"name\":\"c\",\"kind\":\"counter\",\"delta\":3,\"labels\":{\"p\":7}}\n",
            "{\"name\":\"o\",\"kind\":\"observe\",\"value\":2.5,\"labels\":{}}\n",
            "\n",
            "{\"name\":\"m\",\"kind\":\"mark\",\"labels\":{\"neg\":-4,\"rate\":0.5}}\n",
        );
        let events = parse_jsonl(text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].span_nanos(), Some(12));
        assert_eq!(
            events[0].label("stage").and_then(Value::as_str),
            Some("map")
        );
        assert_eq!(events[1].counter_delta(), Some(3));
        assert_eq!(events[1].label("p"), Some(&Value::U64(7)));
        assert_eq!(events[2].observed(), Some(2.5));
        assert_eq!(events[3].kind, EventKind::Mark);
        assert_eq!(events[3].label("neg"), Some(&Value::I64(-4)));
        assert_eq!(events[3].label("rate"), Some(&Value::F64(0.5)));
    }

    #[test]
    fn tolerates_whitespace_and_reordered_keys() {
        let line = r#" { "labels": { "a": 1 } , "kind": "span", "nanos": 9, "name": "x" } "#;
        let e = parse_line(line.trim()).unwrap();
        assert_eq!(e.name, "x");
        assert_eq!(e.span_nanos(), Some(9));
        assert_eq!(e.label("a"), Some(&Value::U64(1)));
    }

    #[test]
    fn escapes_round_trip() {
        let line = r#"{"name":"q\"uote\n","kind":"mark","labels":{"k":"tab\there é"}}"#;
        let e = parse_line(line).unwrap();
        assert_eq!(e.name, "q\"uote\n");
        assert_eq!(e.label("k").and_then(Value::as_str), Some("tab\there é"));
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_jsonl("{\"name\":\"ok\",\"kind\":\"mark\",\"labels\":{}}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        // A line that is not JSON keeps the reader's error as its cause.
        assert!(std::error::Error::source(&err).is_some(), "{err}");
    }

    #[test]
    fn histogram_events_round_trip_through_jsonl() {
        use crate::jsonl::event_to_json;
        use crate::memory::MemoryRecorder;
        use crate::recorder::Recorder;

        // Record a realistic mix of spans and observations…
        let original = MemoryRecorder::new();
        for i in 1..=200u64 {
            original.record(
                Event::new("engine.request", EventKind::Span { nanos: i * 17_000 })
                    .with_label("op", "score")
                    .with_label("request", i),
            );
            original.record(Event::new(
                "engine.queue_depth",
                EventKind::Observe {
                    value: (i % 7) as f64,
                },
            ));
        }
        original.record(Event::new(
            "engine.queue_depth",
            EventKind::Observe { value: 0.125 },
        ));

        // …write them as JSONL, replay, and re-record into a fresh sink.
        let text: String = original
            .events()
            .iter()
            .map(|e| format!("{}\n", event_to_json(e)))
            .collect();
        let replayed = MemoryRecorder::new();
        for event in parse_jsonl(&text).unwrap() {
            replayed.record(event);
        }

        // The snapshots are identical, event for event…
        assert_eq!(original.events(), replayed.events());
        // …and so are the derived percentile summaries.
        assert_eq!(
            original.span_histogram("engine.request").summary(),
            replayed.span_histogram("engine.request").summary(),
        );
        assert_eq!(
            original
                .observation_histogram("engine.queue_depth")
                .summary(),
            replayed
                .observation_histogram("engine.queue_depth")
                .summary(),
        );
        assert_eq!(original.span_histogram("engine.request").count(), 200);
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(parse_line(r#"{"kind":"mark","labels":{}}"#).is_err());
        assert!(parse_line(r#"{"name":"x","labels":{}}"#).is_err());
        assert!(parse_line(r#"{"name":"x","kind":"span","labels":{}}"#).is_err());
    }
}
