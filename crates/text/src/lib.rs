//! # tweeql-text
//!
//! The unstructured-text substrate for TweeQL (§2 of the paper,
//! "Unstructured Records"). Everything here is built from scratch on the
//! sanctioned offline crate set:
//!
//! * [`mod@tokenize`] / [`normalize`] — a tweet-aware tokenizer (hashtags,
//!   mentions, URLs, emoticons, elongation squashing);
//! * [`regex`] — a small regular-expression engine (parser → Thompson
//!   NFA → Pike VM with capture groups, and a DFA for group-0
//!   requests) backing the TweeQL `MATCHES` predicate and
//!   `regex_extract` UDF;
//! * [`ac`] — an Aho–Corasick automaton for streaming multi-keyword
//!   matching (the `contains` predicate over many tracked terms);
//! * [`sentiment`] — the classification framework: an embedded lexicon
//!   baseline and a multinomial Naive Bayes classifier with per-class
//!   recall statistics (TwitInfo normalizes aggregate sentiment by
//!   classifier recall);
//! * [`tfidf`] — document-frequency tracking and top-k key-term
//!   extraction (TwitInfo's automatic peak labels);
//! * [`similarity`] — cosine similarity for relevance-ranked tweet lists;
//! * [`entity`] — a dictionary-gazetteer named-entity extractor standing
//!   in for the OpenCalais web service.

pub mod ac;
pub mod entity;
pub mod fold;
pub mod normalize;
pub mod regex;
pub mod sentiment;
pub mod similarity;
pub mod stopwords;
pub mod tfidf;
pub mod tokenize;

pub use ac::AhoCorasick;
pub use fold::{contains_fold_both, contains_folded, fold_needle, SmallBuf};
pub use regex::Regex;
pub use sentiment::{Polarity, SentimentClassifier};
pub use tokenize::{tokenize, tokens, Token, TokenKind, TokenRef};
