//! Requests to `matchd` through [`MatchClient`], counted against the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Serialize;
use wiki_corpus::Article;
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{
    AlignRequest, CorpusRequest, MatcherRequest, MutateRequest, StatsResponse, TranslateRequest,
};

/// Requests attempted and failed over a whole run (set-up and checks
/// included): a failure is a transport error or a non-2xx status.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// One keep-alive connection whose every request lands in a [`Tally`].
pub struct Conn<'a> {
    client: MatchClient,
    tally: &'a Tally,
}

/// A completed request: its body when the status was 2xx, and how long the
/// round trip took.
pub struct Reply {
    pub body: Option<String>,
    pub elapsed: Duration,
    pub done: Instant,
}

impl<'a> Conn<'a> {
    pub fn new(addr: &str, tally: &'a Tally) -> std::io::Result<Self> {
        Ok(Conn {
            client: MatchClient::new(addr)?,
            tally,
        })
    }

    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> Reply {
        self.tally.attempted.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = self.client.request(method, path, body);
        let done = Instant::now();
        let body = match result {
            Ok(response) if response.is_success() => Some(response.body),
            _ => {
                self.tally.failed.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        Reply {
            body,
            elapsed: done - start,
            done,
        }
    }

    pub fn post(&mut self, path: &str, body: &str) -> Reply {
        self.send("POST", path, Some(body))
    }

    pub fn warm(&mut self, corpus: &str) -> Reply {
        self.post("/warm", &corpus_body(corpus))
    }

    pub fn stats(&mut self) -> Option<StatsResponse> {
        let body = self.send("GET", "/stats", None).body?;
        serde_json::from_str(&body).ok()
    }

    /// Polls `/readyz` until it answers 200.
    pub fn ready(&mut self) -> bool {
        for _ in 0..2000 {
            if self.send("GET", "/readyz", None).body.is_some() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol types always serialize")
}

fn corpus_body(corpus: &str) -> String {
    json(&CorpusRequest {
        corpus: corpus.to_string(),
    })
}

/// `POST /align` body; `None` aligns every type.
pub fn align_body(corpus: &str, type_id: Option<&str>) -> String {
    json(&AlignRequest {
        corpus: corpus.to_string(),
        type_id: type_id.map(String::from),
    })
}

/// `POST /matchers` body running the Bouma baseline on one type.
pub fn matcher_body(corpus: &str, type_id: &str) -> String {
    json(&MatcherRequest {
        corpus: corpus.to_string(),
        matcher: "Bouma".to_string(),
        type_id: Some(type_id.to_string()),
    })
}

/// The foreign-language c-query of a corpus, as `matchbench` sends it.
pub fn demo_query(corpus: &str) -> &'static str {
    if corpus.starts_with("vi") {
        "phim(đạo diễn=?)"
    } else {
        "filme(direção=?, país=\"Estados Unidos\")"
    }
}

/// `POST /translate-query` body with the corpus' demo query.
pub fn translate_body(corpus: &str) -> String {
    json(&TranslateRequest {
        corpus: corpus.to_string(),
        query: demo_query(corpus).to_string(),
        top_k: Some(3),
    })
}

/// `POST /corpora/{name}/entities` body upserting one article.
pub fn mutate_body(article: &Article) -> String {
    json(&MutateRequest {
        entities: vec![article.clone()],
    })
}
