//! Cache keys of the server backend's request caches: the parsed-program
//! cache (source bytes → [`chora_ir::Program`]) and the rendered-response
//! cache (endpoint + query + source → finished JSON document).
//!
//! Both caches are [`chora_core::ShardedLru`]s, the same sharded LRU that
//! holds the summary store's memory tier.  Keys are 128-bit content
//! fingerprints, so two clients posting the same `.imp` source share
//! entries — and an edited source simply misses.

use chora_ir::{Fingerprint, FingerprintBuilder};

/// The cache key of a source text (parsed-program cache).
pub fn source_key(source: &str) -> Fingerprint {
    let mut b = FingerprintBuilder::new();
    b.write_str("chora-progcache-source-v1");
    b.write_str(source);
    b.finish()
}

/// The cache key of a rendered response: endpoint, the query pairs that
/// influence the output (sorted, so parameter order does not split the
/// cache), and the source fingerprint.  `jobs` is deliberately excluded —
/// the analysis result is identical for every worker count (a repo
/// invariant the analyzer tests pin down), only wall-clock changes, and
/// timing fields are not part of response keys' byte-identity contract.
pub fn response_key(
    endpoint: &str,
    query: &[(String, String)],
    source: Fingerprint,
) -> Fingerprint {
    let mut pairs: Vec<&(String, String)> = query.iter().filter(|(k, _)| k != "jobs").collect();
    pairs.sort();
    let mut b = FingerprintBuilder::new();
    b.write_str("chora-progcache-response-v1");
    b.write_str(endpoint);
    b.write_u64(pairs.len() as u64);
    for (k, v) in pairs {
        b.write_str(k);
        b.write_str(v);
    }
    b.write_fingerprint(source);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_keys_ignore_jobs_and_pair_order() {
        let src = source_key("x");
        let q1 = vec![
            ("proc".to_string(), "main".to_string()),
            ("jobs".to_string(), "4".to_string()),
            ("cost".to_string(), "cost".to_string()),
        ];
        let q2 = vec![
            ("cost".to_string(), "cost".to_string()),
            ("proc".to_string(), "main".to_string()),
            ("jobs".to_string(), "1".to_string()),
        ];
        assert_eq!(
            response_key("/v1/analyze", &q1, src),
            response_key("/v1/analyze", &q2, src)
        );
        let q3 = vec![("proc".to_string(), "other".to_string())];
        assert_ne!(
            response_key("/v1/analyze", &q1, src),
            response_key("/v1/analyze", &q3, src)
        );
        assert_ne!(
            response_key("/v1/analyze", &q1, src),
            response_key("/v1/complexity", &q1, src)
        );
        assert_ne!(
            response_key("/v1/analyze", &q1, src),
            response_key("/v1/analyze", &q1, source_key("y"))
        );
    }
}
