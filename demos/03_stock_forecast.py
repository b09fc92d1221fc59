"""Desk-scale stock forecasting with the classical and quantum models.

Trains shortened runs on the bundled sample data so the demo finishes in
a few seconds (about 5 s on a 2-vCPU machine); the full published-style
experiment is ``qtft compare --data data/axis_bank_2000.csv``.

Run with ``python3 demos/03_stock_forecast.py`` from the root of the
checkout, since it opens ``data/axis_bank_2000.csv`` by a relative path.
"""

from qtft import data_io, forecasting

table = data_io.load_csv("data/axis_bank_2000.csv",
                         ["Open", "High", "Low", "Last"], "Close")
target = table.column_index("Close")
print(f"loaded {table.rows.shape[0]} rows; Close spans "
      f"{table.rows[:, target].min():.2f} .. {table.rows[:, target].max():.2f}")

for kind, epochs in [("tft", 100), ("qtft", 25)]:
    cfg = forecasting.TrainConfig(model_kind=kind, epochs=epochs)
    train_w, test_w = forecasting.build_stock_windows(table.rows, target, cfg)
    model = forecasting.build_model(cfg, train_w[0].past.shape[1],
                                    train_w[0].future_known.shape[1],
                                    train_w[0].static.shape[0])
    print(f"\n== {kind} ({model.param_count()} parameters, {len(train_w)} windows, "
          f"{epochs} epochs) ==")
    history = forecasting.train(model, train_w, cfg)
    for e in range(0, epochs + 1, max(1, epochs // 5)):
        print(f"epoch {e:3d}: train loss {history[e]:.4f}")
    print(f"test loss: {forecasting.evaluate(model, test_w, cfg.quantile):.4f}")
    rows = forecasting.window_predictions(model, train_w)[:6]
    print("first prediction rows (time, true, predicted):")
    for t, y, yhat in rows:
        print(f"  {t:3d}  {y:7.2f}  {yhat:7.2f}")
