//! The synthetic user population.
//!
//! Users get a home city sampled by the gazetteer's `twitter_weight`
//! (reproducing the paper's "Tokyo has many Twitter users, but Cape
//! Town has far fewer"), a Zipf-ish follower count, and a *messy*
//! free-text profile location — canonical name, alias, decorated
//! variant, garbage, or empty — exactly the input distribution the
//! geocoding UDF has to survive.
//!
//! Every user's strings lie in one shared chunk, and profile `location`
//! and `lang` strings are interned: one string per distinct value,
//! shared by every author that carries it, so a columnar batch's
//! dictionary resolves a repeat by pointer.

use crate::pack::Packer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use tweeql_geo::gazetteer::{self, City};
use tweeql_geo::point::GeoPoint;
use tweeql_model::{User, UserId};

/// One synthetic user and generator-side truth about them.
#[derive(Debug, Clone)]
pub struct SyntheticUser {
    /// The streamable user record, shared with every tweet the
    /// generator attributes to this author.
    pub user: Arc<User>,
    /// Gazetteer index of the home city (truth, even when the profile
    /// location string is garbage).
    pub city_index: usize,
    /// Exact home coordinate (jittered around the city center).
    pub home: GeoPoint,
}

/// An indexed population.
#[derive(Debug, Clone)]
pub struct Population {
    users: Vec<SyntheticUser>,
    /// Cumulative activity weights for weighted sampling of authors.
    cumulative_activity: Vec<f64>,
    /// Per-city user lists for hotspot-boosted sampling.
    by_city: Vec<Vec<usize>>,
}

const FIRST: &[&str] = &[
    "alex", "sam", "jo", "max", "kim", "lee", "ray", "dana", "pat", "casey", "jordan", "riley",
    "drew", "jamie", "quinn", "taylor", "morgan", "avery", "blake", "cameron", "devon", "emery",
    "finley", "harper", "hayden", "jesse", "kai", "logan", "micah", "noel", "parker", "reese",
    "rowan", "sage", "skyler", "tatum",
];
const SUFFIX: &[&str] = &[
    "", "_", "x", "xx", "123", "2011", "99", "_tw", "official", "real", "the", "mr", "ms", "dj",
];

/// A user before its strings are packed.
struct Draft {
    city_index: usize,
    home: GeoPoint,
    followers: u32,
    screen_name: String,
    location: String,
    lang: &'static str,
}

impl Population {
    /// Generate `n` users deterministically from `seed`.
    pub fn generate(n: usize, seed: u64) -> Population {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gazetteer::global();
        let cities = g.cities();
        let total_w: f64 = g.total_twitter_weight();

        let mut drafts = Vec::with_capacity(n);
        let mut by_city = vec![Vec::new(); cities.len()];
        let mut cumulative_activity = Vec::with_capacity(n);
        let mut acc = 0.0;

        for i in 0..n {
            // Weighted city choice.
            let mut pick = rng.random_range(0.0..total_w);
            let mut city_index = 0;
            for (ci, c) in cities.iter().enumerate() {
                if pick < c.twitter_weight {
                    city_index = ci;
                    break;
                }
                pick -= c.twitter_weight;
            }
            let city = &cities[city_index];

            // Home coordinate jittered ±0.15° around the center.
            let home = GeoPoint::new(
                city.center.lat + rng.random_range(-0.15..0.15),
                city.center.lon + rng.random_range(-0.15..0.15),
            );

            // Zipf-ish followers: most accounts tiny, Pareto tail
            // (exponent ~1/1.1) reaching celebrity scale.
            let u: f64 = rng.random_range(0.00001..1.0);
            let followers = (5.0 / u.powf(1.1)).min(2_000_000.0) as u32;

            let screen_name = format!(
                "{}{}{}",
                FIRST[rng.random_range(0..FIRST.len())],
                SUFFIX[rng.random_range(0..SUFFIX.len())],
                i
            );

            let location = Self::messy_location(&mut rng, city);
            let lang = match city.country {
                "Japan" => "ja",
                "Brazil" | "Portugal" => "pt",
                "Spain" | "Mexico" | "Argentina" | "Chile" | "Colombia" | "Venezuela" | "Peru"
                | "Ecuador" => "es",
                "France" => "fr",
                "Germany" | "Austria" => "de",
                "Indonesia" => "id",
                "South Korea" => "ko",
                "China" | "Taiwan" => "zh",
                "Russia" => "ru",
                "Turkey" => "tr",
                _ => "en",
            };

            // Activity: a user's tweet propensity follows followers^0.3
            // (active users are somewhat popular, not linearly).
            let activity = (followers as f64).powf(0.3).max(1.0);
            acc += activity;
            cumulative_activity.push(acc);
            by_city[city_index].push(i);

            drafts.push(Draft {
                city_index,
                home,
                followers,
                screen_name,
                location,
                lang,
            });
        }

        let mut pack = Packer::default();
        let spans: Vec<[Range<usize>; 3]> = drafts
            .iter()
            .map(|d| {
                [
                    pack.push(&d.screen_name),
                    pack.intern(&d.location),
                    pack.intern(d.lang),
                ]
            })
            .collect();
        let chunk = pack.seal();
        let users = drafts
            .into_iter()
            .zip(spans)
            .enumerate()
            .map(|(i, (d, [name, location, lang]))| SyntheticUser {
                user: Arc::new(User {
                    id: (i as UserId) + 1,
                    screen_name: chunk.slice(name),
                    location: chunk.slice(location),
                    followers: d.followers,
                    lang: chunk.slice(lang),
                }),
                city_index: d.city_index,
                home: d.home,
            })
            .collect();

        Population {
            users,
            cumulative_activity,
            by_city,
        }
    }

    fn messy_location(rng: &mut StdRng, city: &City) -> String {
        match rng.random_range(0..10) {
            // 40%: canonical name.
            0..=3 => city.name.to_string(),
            // 25%: an alias.
            4..=6 if !city.aliases.is_empty() => {
                city.aliases[rng.random_range(0..city.aliases.len())].to_string()
            }
            4..=6 => city.name.to_string(),
            // 10%: decorated.
            7 => format!("{} ✈", city.name),
            // 15%: garbage a geocoder can't resolve.
            8 => [
                "somewhere",
                "earth",
                "the moon",
                "in your dreams",
                "worldwide",
            ][rng.random_range(0..5usize)]
            .to_string(),
            // 10%: empty.
            _ => String::new(),
        }
    }

    /// All users.
    pub fn users(&self) -> &[SyntheticUser] {
        &self.users
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Sample an author weighted by activity. When `hotspot_cities` is
    /// non-empty, with probability `boost/(boost+1)` the author is drawn
    /// from those cities instead (topic locality, e.g. a Red Sox game
    /// trending in Boston).
    pub fn sample_author(
        &self,
        rng: &mut StdRng,
        hotspot_cities: &[usize],
        boost: f64,
    ) -> &SyntheticUser {
        if !hotspot_cities.is_empty() && boost > 1.0 {
            let p_hot = (boost - 1.0) / boost;
            if rng.random_range(0.0..1.0) < p_hot {
                // Uniform over hotspot cities' users.
                let candidates: Vec<usize> = hotspot_cities
                    .iter()
                    .flat_map(|&c| self.by_city.get(c).into_iter().flatten().copied())
                    .collect();
                if !candidates.is_empty() {
                    return &self.users[candidates[rng.random_range(0..candidates.len())]];
                }
            }
        }
        let total = *self.cumulative_activity.last().unwrap_or(&1.0);
        let pick = rng.random_range(0.0..total);
        let idx = self
            .cumulative_activity
            .partition_point(|&a| a <= pick)
            .min(self.users.len() - 1);
        &self.users[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use tweeql_model::Text;

    #[test]
    fn deterministic_from_seed() {
        let a = Population::generate(50, 7);
        let b = Population::generate(50, 7);
        assert_eq!(a.users().len(), b.users().len());
        for (x, y) in a.users().iter().zip(b.users()) {
            assert_eq!(x.user, y.user);
            assert_eq!(x.city_index, y.city_index);
        }
        let c = Population::generate(50, 8);
        assert!(a
            .users()
            .iter()
            .zip(c.users())
            .any(|(x, y)| x.user != y.user));
    }

    #[test]
    fn location_and_lang_are_interned() {
        let pop = Population::generate(2000, 5);
        let fields: [fn(&User) -> &Text; 3] = [|u| &u.screen_name, |u| &u.location, |u| &u.lang];
        for field in fields {
            let values: Vec<&Text> = pop.users().iter().map(|u| field(&u.user)).collect();
            let distinct: HashSet<&str> = values.iter().map(|v| v.as_str()).collect();
            let copies: HashSet<_> = values.iter().map(|v| (v.as_ptr(), v.len())).collect();
            assert_eq!(copies.len(), distinct.len(), "one copy per distinct value");
        }
        let chunks: HashSet<usize> = (pop.users().iter())
            .flat_map(|u| fields.map(|f| f(&u.user).chunk_addr()))
            .flatten()
            .collect();
        assert_eq!(chunks.len(), 1, "every user's strings share one chunk");
    }

    #[test]
    fn city_skew_follows_twitter_weight() {
        let pop = Population::generate(5000, 42);
        let g = tweeql_geo::gazetteer::global();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for u in pop.users() {
            *counts.entry(g.cities()[u.city_index].name).or_insert(0) += 1;
        }
        let tokyo = counts.get("Tokyo").copied().unwrap_or(0);
        let cape = counts.get("Cape Town").copied().unwrap_or(0);
        assert!(
            tokyo > cape * 5,
            "Tokyo ({tokyo}) must dominate Cape Town ({cape})"
        );
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let pop = Population::generate(200, 1);
        let mut seen = std::collections::HashSet::new();
        for u in pop.users() {
            assert!(u.user.id > 0);
            assert!(seen.insert(u.user.id));
        }
    }

    #[test]
    fn locations_are_messy_mixture() {
        let pop = Population::generate(2000, 3);
        let empty = pop
            .users()
            .iter()
            .filter(|u| u.user.location.is_empty())
            .count();
        let garbage = pop
            .users()
            .iter()
            .filter(|u| &*u.user.location == "somewhere" || &*u.user.location == "earth")
            .count();
        assert!(empty > 50, "empty = {empty}");
        assert!(garbage > 20, "garbage = {garbage}");
        // But the majority should be geocodable.
        let g = tweeql_geo::gazetteer::global();
        let resolvable = pop
            .users()
            .iter()
            .filter(|u| g.resolve(&u.user.location).is_some())
            .count();
        assert!(
            resolvable as f64 / pop.len() as f64 > 0.6,
            "resolvable = {resolvable}"
        );
    }

    #[test]
    fn follower_distribution_is_heavy_tailed() {
        let pop = Population::generate(3000, 9);
        let mut followers: Vec<u32> = pop.users().iter().map(|u| u.user.followers).collect();
        followers.sort_unstable();
        let median = followers[followers.len() / 2];
        let max = *followers.last().unwrap();
        assert!(median < 100, "median = {median}");
        assert!(max > 10_000, "max = {max}");
    }

    #[test]
    fn hotspot_sampling_biases_city() {
        let pop = Population::generate(2000, 11);
        let g = tweeql_geo::gazetteer::global();
        let boston = g.cities().iter().position(|c| c.name == "Boston").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        for _ in 0..500 {
            let u = pop.sample_author(&mut rng, &[boston], 10.0);
            if u.city_index == boston {
                hits += 1;
            }
        }
        // ~90% should come from Boston under boost 10.
        assert!(hits > 350, "hits = {hits}");
    }

    #[test]
    fn home_jitter_stays_near_center() {
        let pop = Population::generate(300, 13);
        let g = tweeql_geo::gazetteer::global();
        for u in pop.users() {
            let d = u.home.haversine_km(&g.cities()[u.city_index].center);
            assert!(d < 40.0, "user too far from home city: {d} km");
        }
    }
}
