//! The Tweet Map (§3.3): "displays tweets that provide geolocation
//! metadata. The marker for each tweet is colored according to its
//! sentiment" — so one can "quickly zoom in on clusters of activity
//! around New York and Boston during a Red Sox-Yankees baseball game".

use tweeql_geo::GeoPoint;
use tweeql_model::{Timestamp, Tweet};
use tweeql_text::sentiment::{Polarity, SentimentClassifier};

/// A map marker.
#[derive(Debug, Clone, PartialEq)]
pub struct Marker {
    /// Marker position.
    pub point: GeoPoint,
    /// Marker color.
    pub sentiment: Polarity,
    /// Tweet id (clicking a pin reveals the tweet).
    pub tweet_id: u64,
}

/// A cluster of markers in one 1°×1° cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Cell (floor(lat), floor(lon)).
    pub cell: (i32, i32),
    /// Markers in the cell.
    pub count: u64,
    /// Net sentiment in [-1, 1]: (pos − neg) / count.
    pub net_sentiment: f64,
}

/// Extract sentiment-colored markers for geotagged tweets in
/// `[start, end)`.
pub fn markers(
    tweets: &[Tweet],
    start: Timestamp,
    end: Timestamp,
    classifier: &dyn SentimentClassifier,
) -> Vec<Marker> {
    tweets
        .iter()
        .filter(|t| t.created_at >= start && t.created_at < end)
        .filter_map(|t| {
            t.coordinates().map(|(lat, lon)| Marker {
                point: GeoPoint::new(lat, lon),
                sentiment: classifier.classify(&t.text),
                tweet_id: t.id,
            })
        })
        .collect()
}

/// Cluster markers into 1°×1° cells, largest first.
pub fn clusters(marks: &[Marker]) -> Vec<Cluster> {
    let mut map: std::collections::HashMap<(i32, i32), (u64, i64)> =
        std::collections::HashMap::new();
    for m in marks {
        let e = map.entry(m.point.grid_cell()).or_insert((0, 0));
        e.0 += 1;
        e.1 += match m.sentiment {
            Polarity::Positive => 1,
            Polarity::Negative => -1,
            Polarity::Neutral => 0,
        };
    }
    let mut out: Vec<Cluster> = map
        .into_iter()
        .map(|(cell, (count, net))| Cluster {
            cell,
            count,
            net_sentiment: net as f64 / count as f64,
        })
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.cell.cmp(&b.cell)));
    out
}

/// Render an equirectangular ASCII world map with marker densities.
/// `+`/`-`/`·` mark predominantly positive/negative/neutral cells;
/// uppercase variants (`#` for dense neutral) mark heavy cells.
pub fn render_ascii_map(marks: &[Marker], width: usize, height: usize) -> String {
    let mut grid = vec![vec![(0u64, 0i64); width]; height];
    for m in marks {
        // Equirectangular projection; clamp into the grid.
        let x = (((m.point.lon + 180.0) / 360.0) * width as f64) as usize;
        let y = (((90.0 - m.point.lat) / 180.0) * height as f64) as usize;
        let (x, y) = (x.min(width - 1), y.min(height - 1));
        grid[y][x].0 += 1;
        grid[y][x].1 += match m.sentiment {
            Polarity::Positive => 1,
            Polarity::Negative => -1,
            Polarity::Neutral => 0,
        };
    }
    let max = grid
        .iter()
        .flatten()
        .map(|(c, _)| *c)
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::with_capacity((width + 3) * height);
    out.push('┌');
    out.push_str(&"─".repeat(width));
    out.push_str("┐\n");
    for row in &grid {
        out.push('│');
        for &(count, net) in row {
            let c = if count == 0 {
                ' '
            } else {
                let dense = count * 3 >= max; // top third of density
                match net.signum() {
                    1 => {
                        if dense {
                            '⊕'
                        } else {
                            '+'
                        }
                    }
                    -1 => {
                        if dense {
                            '⊖'
                        } else {
                            '-'
                        }
                    }
                    _ => {
                        if dense {
                            '#'
                        } else {
                            '·'
                        }
                    }
                }
            };
            out.push(c);
        }
        out.push_str("│\n");
    }
    out.push('└');
    out.push_str(&"─".repeat(width));
    out.push_str("┘\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::TweetBuilder;
    use tweeql_text::sentiment::LexiconClassifier;

    fn tweet(id: u64, text: &str, lat: f64, lon: f64, mins: i64) -> Tweet {
        TweetBuilder::new(id, text)
            .coordinates(lat, lon)
            .at(Timestamp::from_mins(mins))
            .build()
    }

    #[test]
    fn only_geotagged_in_window_become_markers() {
        let clf = LexiconClassifier::new();
        let tweets = vec![
            tweet(1, "great", 40.7, -74.0, 1),
            TweetBuilder::new(2, "no geo")
                .at(Timestamp::from_mins(1))
                .build(),
            tweet(3, "late", 40.7, -74.0, 99),
        ];
        let ms = markers(&tweets, Timestamp::ZERO, Timestamp::from_mins(10), &clf);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].tweet_id, 1);
        assert_eq!(ms[0].sentiment, Polarity::Positive);
    }

    #[test]
    fn clustering_by_degree_cell() {
        let clf = LexiconClassifier::new();
        let tweets = vec![
            tweet(1, "great win", 40.7, -74.01, 1),
            tweet(2, "amazing", 40.75, -74.02, 1),
            tweet(3, "awful", 40.72, -74.03, 1),
            tweet(4, "boston chatter", 42.3, -71.1, 1),
        ];
        let ms = markers(&tweets, Timestamp::ZERO, Timestamp::from_mins(10), &clf);
        let cs = clusters(&ms);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].cell, (40, -75));
        assert_eq!(cs[0].count, 3);
        // 2 positive, 1 negative → net 1/3.
        assert!((cs[0].net_sentiment - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(cs[1].count, 1);
        assert_eq!(cs[1].net_sentiment, 0.0);
    }

    #[test]
    fn ascii_map_marks_hemispheres() {
        let clf = LexiconClassifier::new();
        let tweets = vec![
            tweet(1, "great", 35.68, 139.65, 1),  // Tokyo: east, north
            tweet(2, "terrible", -33.9, 18.4, 1), // Cape Town: mid, south
        ];
        let ms = markers(&tweets, Timestamp::ZERO, Timestamp::from_mins(10), &clf);
        let map = render_ascii_map(&ms, 40, 12);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 14); // border + 12 rows + border
                                     // One positive and one negative dense marker somewhere.
        assert!(map.contains('⊕'), "{map}");
        assert!(map.contains('⊖'), "{map}");
    }

    #[test]
    fn empty_map_renders_blank_frame() {
        let map = render_ascii_map(&[], 10, 3);
        assert_eq!(map.lines().count(), 5);
        assert!(!map.contains('+'));
    }
}
