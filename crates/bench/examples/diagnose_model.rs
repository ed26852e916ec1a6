//! Diagnostic: does the trained cost model rank plans usefully on held-out queries?
use qpseeker_core::prelude::*;
use qpseeker_engine::prelude::*;
use qpseeker_workloads::{job, JobConfig, Qep, SamplingConfig};

fn main() {
    let db = std::sync::Arc::new(qpseeker_storage::datagen::imdb::generate(0.06, 77));
    let workload = job::generate(
        &db,
        &JobConfig {
            n_queries: 16,
            n_templates: 6,
            target_qeps: 320,
            keep_fraction: 1.0,
            ..Default::default()
        },
    );
    println!("workload {} qeps", workload.num_qeps());
    let (train, eval) = workload.split(0.75, true);
    let mut cfg = match std::env::var("CFG").as_deref() {
        Ok("bench") => ModelConfig::bench(),
        _ => ModelConfig::small(),
    };
    cfg.epochs = std::env::var("EPOCHS").ok().and_then(|v| v.parse().ok()).unwrap_or(10);
    cfg.node_loss_weight = std::env::var("NODEW").ok().and_then(|v| v.parse().ok()).unwrap_or(0.1);
    if let Ok(l) = std::env::var("LAT") {
        cfg.vae_latent = l.parse().unwrap();
    }
    if let Ok(b) = std::env::var("BETA") {
        cfg.beta = b.parse().unwrap();
    }
    let mut model = QPSeeker::new(&db, cfg);
    let rep = model.fit(&train).expect("training succeeds");
    println!("loss {:?} -> {:?}", rep.epoch_losses.first(), rep.epoch_losses.last());

    let ex = Executor::new(&db);
    let mut seen = std::collections::HashSet::new();
    let queries: Vec<&Query> = eval
        .iter()
        .filter(|q| seen.insert(q.query.id.clone()))
        .map(|q: &&Qep| &q.query)
        .take(5)
        .collect();
    for q in queries {
        // sample candidate plans uniformly
        let plans = qpseeker_workloads::sample_plans(
            &db,
            q,
            &SamplingConfig {
                max_orderings: 30,
                operators_per_ordering: 2,
                keep_fraction: 1.0,
                seed: 5,
            },
        );
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for sp in plans.iter().take(40) {
            preds.push(model.predict(q, &sp.plan).runtime_ms);
            actuals.push(ex.execute(&sp.plan).time_ms);
        }
        // rank correlation (Spearman via rank vectors)
        let rank = |v: &Vec<f64>| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
            let mut r = vec![0.0; v.len()];
            for (pos, &i) in idx.iter().enumerate() {
                r[i] = pos as f64;
            }
            r
        };
        let rp = rank(&preds);
        let ra = rank(&actuals);
        let n = rp.len() as f64;
        let mp = rp.iter().sum::<f64>() / n;
        let ma = ra.iter().sum::<f64>() / n;
        let cov = rp.iter().zip(&ra).map(|(a, b)| (a - mp) * (b - ma)).sum::<f64>();
        let sp_ = (rp.iter().map(|a| (a - mp).powi(2)).sum::<f64>()
            * ra.iter().map(|b| (b - ma).powi(2)).sum::<f64>())
        .sqrt();
        let rho = cov / sp_.max(1e-9);
        // model-argmin plan actual time vs best actual vs median actual
        let amin = preds.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let mut sorted = actuals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "{}: joins={} rho={:.2} argmin_actual={:.1} best={:.1} median={:.1} worst={:.1}",
            q.id,
            q.num_joins(),
            rho,
            actuals[amin],
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1]
        );
    }
}
