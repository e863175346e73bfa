//! Deterministic synthetic data generators.
//!
//! Each generator stands in for a dataset the paper used but we cannot
//! ship. All are pure functions of their parameters and seed.

use helix_common::SplitMix64;

/// Census-like CSV text (train, test): the 14-attribute schema of the
/// Kohavi Census Income dataset with a planted logistic relationship
/// between a feature subset and the binary `target` column.
pub fn census_csv(train_rows: usize, test_rows: usize, seed: u64) -> (String, String) {
    const EDUCATION: [&str; 8] =
        ["HS-grad", "Some-college", "Bachelors", "Masters", "Doctorate", "Assoc", "11th", "9th"];
    const OCCUPATION: [&str; 8] = [
        "Adm-clerical",
        "Exec-managerial",
        "Prof-specialty",
        "Handlers-cleaners",
        "Sales",
        "Craft-repair",
        "Transport",
        "Tech-support",
    ];
    const MARITAL: [&str; 5] = ["Married", "Never-married", "Divorced", "Widowed", "Separated"];
    const RELATIONSHIP: [&str; 4] = ["Husband", "Wife", "Own-child", "Not-in-family"];
    const RACE: [&str; 5] = ["White", "Black", "Asian", "Amer-Indian", "Other"];
    const SEX: [&str; 2] = ["Male", "Female"];
    const COUNTRY: [&str; 6] =
        ["United-States", "Mexico", "Philippines", "Germany", "Canada", "India"];
    const WORKCLASS: [&str; 5] = ["Private", "Self-emp", "Federal-gov", "Local-gov", "State-gov"];

    let mut rng = SplitMix64::new(seed);
    let mut emit = |rows: usize| -> String {
        let mut out = String::with_capacity(rows * 96);
        for _ in 0..rows {
            let age = 17 + rng.next_below(60) as i64;
            let workclass = WORKCLASS[rng.index(WORKCLASS.len())];
            let fnlwgt = 10_000 + rng.next_below(900_000) as i64;
            let education = rng.index(EDUCATION.len());
            let marital = rng.index(MARITAL.len());
            let occupation = rng.index(OCCUPATION.len());
            let relationship = RELATIONSHIP[rng.index(RELATIONSHIP.len())];
            let race = RACE[rng.index(RACE.len())];
            let sex = SEX[rng.index(SEX.len())];
            let capital_gain = if rng.chance(0.1) { rng.next_below(20_000) as i64 } else { 0 };
            let hours = 20 + rng.next_below(50) as i64;
            let country = COUNTRY[rng.index(COUNTRY.len())];
            // Planted relationship: education, managerial/professional
            // occupations, age, and hours drive income.
            let score = -3.2
                + 0.55 * (7 - education) as f64 * 0.5
                + if occupation <= 2 { 1.1 } else { 0.0 }
                + 0.025 * (age as f64 - 38.0)
                + 0.02 * (hours as f64 - 40.0)
                + if marital == 0 { 0.7 } else { 0.0 }
                + rng.next_gaussian() * 0.8;
            let target = i64::from(score > 0.0);
            out.push_str(&format!(
                "{age},{workclass},{fnlwgt},{},{marital},{},{relationship},{race},{sex},\
                 {capital_gain},0,{hours},{country},{target}\n",
                EDUCATION[education], OCCUPATION[occupation]
            ));
        }
        out
    };
    (emit(train_rows), emit(test_rows))
}

/// Column names matching [`census_csv`]'s output order.
pub const CENSUS_COLUMNS: [&str; 14] = [
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "marital_status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital_gain",
    "capital_loss",
    "hours",
    "country",
    "target",
];

/// Genomics corpus: articles whose sentences mix gene mentions from
/// planted functional clusters with filler vocabulary. Gene `g{c}_{i}`
/// belongs to planted cluster `c`, so genes of one cluster co-occur and
/// word2vec + k-means can rediscover the partition. Returns
/// `(articles, gene_names)`.
pub fn genomics_corpus(
    articles: usize,
    sentences_per_article: usize,
    clusters: usize,
    genes_per_cluster: usize,
    seed: u64,
) -> (Vec<String>, Vec<String>) {
    const FILLER: [&str; 18] = [
        "expression",
        "pathway",
        "regulates",
        "binding",
        "protein",
        "mutation",
        "tumor",
        "signaling",
        "receptor",
        "cell",
        "growth",
        "factor",
        "analysis",
        "study",
        "response",
        "activation",
        "variant",
        "tissue",
    ];
    let genes: Vec<String> = (0..clusters)
        .flat_map(|c| (0..genes_per_cluster).map(move |i| format!("g{c}x{i}")))
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut corpus = Vec::with_capacity(articles);
    for _ in 0..articles {
        let mut article = String::new();
        for _ in 0..sentences_per_article {
            // Each sentence is about one planted cluster.
            let cluster = rng.index(clusters);
            let mut words = Vec::with_capacity(12);
            for _ in 0..12 {
                if rng.chance(0.45) {
                    let g = rng.index(genes_per_cluster);
                    words.push(genes[cluster * genes_per_cluster + g].clone());
                } else {
                    words.push(FILLER[rng.index(FILLER.len())].to_string());
                }
            }
            article.push_str(&words.join(" "));
            article.push_str(". ");
        }
        corpus.push(article);
    }
    (corpus, genes)
}

/// Planted cluster of a gene name produced by [`genomics_corpus`].
pub fn planted_cluster(gene: &str) -> Option<usize> {
    gene.strip_prefix('g')?.split('x').next()?.parse().ok()
}

/// IE corpus: news-like articles mentioning person pairs, some of which
/// are spouses according to the returned knowledge base. Spouse sentences
/// use marriage verbs; non-spouse sentences use other interactions.
/// Returns `(articles, spouse_pairs)` where pairs are `"A|B"` strings with
/// names in lexicographic order.
pub fn ie_corpus(articles: usize, seed: u64) -> (Vec<String>, Vec<String>) {
    const FIRST: [&str; 16] = [
        "Alice", "Robert", "Carol", "David", "Emma", "Frank", "Grace", "Henry", "Irene", "James",
        "Karen", "Louis", "Maria", "Nathan", "Olivia", "Peter",
    ];
    const SPOUSE_VERBS: [&str; 3] = ["married", "wed", "exchanged vows with"];
    const OTHER_VERBS: [&str; 4] = ["met", "interviewed", "debated", "praised"];
    let mut rng = SplitMix64::new(seed);
    // Plant a fixed spouse relation over name pairs.
    let mut spouse_pairs = Vec::new();
    for i in (0..FIRST.len()).step_by(2) {
        let (a, b) = (FIRST[i], FIRST[i + 1]);
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        spouse_pairs.push(format!("{a}|{b}"));
    }
    let mut corpus = Vec::with_capacity(articles);
    for _ in 0..articles {
        let mut article = String::new();
        let sentences = 2 + rng.index(3);
        for _ in 0..sentences {
            // News about couples mentions them often: 40% of sentences
            // feature a planted spouse pair, keeping classes balanced
            // enough for distant supervision to work.
            let (a, b, is_spouse) = if rng.chance(0.4) {
                let pair = &spouse_pairs[rng.index(spouse_pairs.len())];
                let (a, b) = pair.split_once('|').unwrap();
                (a, b, true)
            } else {
                let i = rng.index(FIRST.len());
                let mut j = rng.index(FIRST.len());
                while j == i {
                    j = rng.index(FIRST.len());
                }
                let (a, b) = (FIRST[i], FIRST[j]);
                let key = if a < b { format!("{a}|{b}") } else { format!("{b}|{a}") };
                (a, b, spouse_pairs.contains(&key))
            };
            // Spouse mentions use wedding vocabulary most of the time;
            // other pairs only rarely (confounders).
            let wedding_vocab = if is_spouse { rng.chance(0.85) } else { rng.chance(0.04) };
            let verb = if wedding_vocab {
                SPOUSE_VERBS[rng.index(SPOUSE_VERBS.len())]
            } else {
                OTHER_VERBS[rng.index(OTHER_VERBS.len())]
            };
            let year = 1980 + rng.next_below(40);
            article.push_str(&format!("{a} {verb} {b} in {year}. "));
        }
        corpus.push(article);
    }
    (corpus, spouse_pairs)
}

/// MNIST-like images: 10 fixed class templates (seeded) with per-image
/// pixel noise. Returns row-major images, labels, and the flat dimension.
pub fn mnist_images(
    train: usize,
    test: usize,
    side: usize,
    seed: u64,
) -> (Vec<(Vec<f64>, u8, bool)>, usize) {
    let dim = side * side;
    let mut rng = SplitMix64::new(seed);
    // Templates: smooth random blobs per class.
    let templates: Vec<Vec<f64>> = (0..10)
        .map(|_| {
            let cx = rng.range_f64(0.2, 0.8) * side as f64;
            let cy = rng.range_f64(0.2, 0.8) * side as f64;
            let sx = rng.range_f64(1.5, 4.0);
            let sy = rng.range_f64(1.5, 4.0);
            let angle = rng.range_f64(0.0, std::f64::consts::PI);
            (0..dim)
                .map(|p| {
                    let x = (p % side) as f64 - cx;
                    let y = (p / side) as f64 - cy;
                    let xr = x * angle.cos() + y * angle.sin();
                    let yr = -x * angle.sin() + y * angle.cos();
                    (-(xr * xr) / (2.0 * sx * sx) - (yr * yr) / (2.0 * sy * sy)).exp()
                })
                .collect()
        })
        .collect();
    let mut images = Vec::with_capacity(train + test);
    for n in 0..train + test {
        let class = (n % 10) as u8;
        let noise = 0.25;
        let pixels: Vec<f64> = templates[class as usize]
            .iter()
            .map(|t| (t + rng.next_gaussian() * noise).clamp(0.0, 1.0))
            .collect();
        images.push((pixels, class, n < train));
    }
    (images, dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_is_deterministic_and_well_formed() {
        let (train_a, test_a) = census_csv(50, 20, 7);
        let (train_b, _) = census_csv(50, 20, 7);
        assert_eq!(train_a, train_b);
        let (train_c, _) = census_csv(50, 20, 8);
        assert_ne!(train_a, train_c);
        assert_eq!(train_a.lines().count(), 50);
        assert_eq!(test_a.lines().count(), 20);
        for line in train_a.lines() {
            assert_eq!(line.split(',').count(), CENSUS_COLUMNS.len());
        }
        // Both classes present.
        let positives = train_a.lines().filter(|l| l.ends_with(",1")).count();
        assert!(positives > 5 && positives < 45, "positives {positives}");
    }

    #[test]
    fn genomics_corpus_contains_planted_genes() {
        let (articles, genes) = genomics_corpus(10, 4, 3, 4, 5);
        assert_eq!(articles.len(), 10);
        assert_eq!(genes.len(), 12);
        assert_eq!(planted_cluster("g2x3"), Some(2));
        assert_eq!(planted_cluster("notagene"), None);
        let text = articles.join(" ");
        let mentioned = genes.iter().filter(|g| text.contains(g.as_str())).count();
        assert!(mentioned >= 10, "most genes mentioned, got {mentioned}");
    }

    #[test]
    fn ie_corpus_has_spouses_and_verbs() {
        let (articles, pairs) = ie_corpus(30, 3);
        assert_eq!(pairs.len(), 8);
        let text = articles.join(" ");
        assert!(text.contains("married") || text.contains("wed"));
        for p in &pairs {
            let (a, b) = p.split_once('|').unwrap();
            assert!(a < b, "pair keys are ordered: {p}");
        }
    }

    #[test]
    fn mnist_images_shape_and_classes() {
        let (images, dim) = mnist_images(40, 10, 8, 2);
        assert_eq!(dim, 64);
        assert_eq!(images.len(), 50);
        assert!(images.iter().all(|(px, _, _)| px.len() == 64));
        assert!(images.iter().all(|(px, _, _)| px.iter().all(|v| (0.0..=1.0).contains(v))));
        assert_eq!(images.iter().filter(|(_, _, train)| *train).count(), 40);
        // Same class images are more similar than cross-class ones.
        let d =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let same = d(&images[0].0, &images[10].0); // class 0 vs class 0
        let diff = d(&images[0].0, &images[5].0); // class 0 vs class 5
        assert!(same < diff, "same {same} diff {diff}");
    }
}
